#include "gsn/storage/columnar/segment.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "gsn/sql/executor.h"
#include "gsn/storage/persistence_log.h"
#include "gsn/types/codec.h"
#include "gsn/util/strings.h"

namespace gsn::storage::columnar {
namespace {

constexpr uint8_t kHeaderRecord = 'H';
constexpr uint8_t kGroupRecord = 'G';
constexpr uint8_t kChunkRecord = 'C';
constexpr uint8_t kFooterRecord = 'F';
/// The format whose chunk data sits inline in the group record.
constexpr uint32_t kInlineChunkVersion = 1;

// -- varint / zigzag --------------------------------------------------------

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> GetVarint(std::string_view data, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++*pos;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::IntegrityError("truncated varint in segment chunk");
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

Result<uint8_t> GetU8(std::string_view data, size_t* pos) {
  if (*pos >= data.size()) return Status::IntegrityError("truncated segment record");
  return static_cast<uint8_t>(data[(*pos)++]);
}

// -- zone maps --------------------------------------------------------------

/// Decides `lhs op rhs` under executor semantics; nullopt = undecidable.
std::optional<bool> Truth(sql::BinaryOp op, const Value& lhs,
                          const Value& rhs) {
  Result<Value> v = sql::EvalBinaryValues(op, lhs, rhs);
  if (!v.ok() || v->is_null()) return std::nullopt;
  Result<Value> b = v->CastTo(DataType::kBool);
  if (!b.ok()) return std::nullopt;
  return b->bool_value();
}

/// Running min/max over a chunk's non-null values, under the same
/// comparison semantics WHERE uses. Any undecidable comparison (mixed
/// kinds, blobs) invalidates the zone — the chunk is then never pruned.
struct ZoneBuilder {
  bool valid = true;
  bool any = false;
  Value min, max;

  void Update(const Value& v) {
    if (!valid) return;
    if (!any) {
      min = v;
      max = v;
      any = true;
      return;
    }
    std::optional<bool> lt = Truth(sql::BinaryOp::kLess, v, min);
    if (!lt.has_value()) {
      valid = false;
      return;
    }
    if (*lt) min = v;
    std::optional<bool> gt = Truth(sql::BinaryOp::kGreater, v, max);
    if (!gt.has_value()) {
      valid = false;
      return;
    }
    if (*gt) max = v;
  }

  bool has_zone() const { return valid && any; }
};

// -- chunk encode -----------------------------------------------------------

/// Picks the encoding for a column whose non-null values are `values`.
ChunkEncoding ClassifyColumn(const std::vector<const Value*>& values,
                             DataType* kind) {
  bool all_int = true, all_ts = true, all_double = true, all_bool = true,
       all_string = true;
  for (const Value* v : values) {
    all_int &= v->is_int();
    all_ts &= v->is_timestamp();
    all_double &= v->is_double();
    all_bool &= v->is_bool();
    all_string &= v->is_string();
  }
  if (!values.empty() && all_int) {
    *kind = DataType::kInt;
    return ChunkEncoding::kDeltaVarint;
  }
  if (!values.empty() && all_ts) {
    *kind = DataType::kTimestamp;
    return ChunkEncoding::kDeltaVarint;
  }
  if (!values.empty() && all_double) {
    *kind = DataType::kDouble;
    return ChunkEncoding::kRaw;
  }
  if (!values.empty() && all_bool) {
    *kind = DataType::kBool;
    return ChunkEncoding::kRaw;
  }
  if (!values.empty() && all_string) {
    *kind = DataType::kString;
    return ChunkEncoding::kDictionary;
  }
  *kind = DataType::kBinary;  // unused for kGeneric
  return ChunkEncoding::kGeneric;
}

void EncodeChunkData(ChunkEncoding encoding, DataType kind,
                     const std::vector<const Value*>& values,
                     std::string* out) {
  switch (encoding) {
    case ChunkEncoding::kDeltaVarint: {
      int64_t prev = 0;
      for (const Value* v : values) {
        const int64_t x =
            kind == DataType::kTimestamp ? v->timestamp_value()
                                         : v->int_value();
        PutVarint(ZigZag(x - prev), out);
        prev = x;
      }
      return;
    }
    case ChunkEncoding::kRaw: {
      if (kind == DataType::kBool) {
        for (const Value* v : values) {
          out->push_back(v->bool_value() ? 1 : 0);
        }
        return;
      }
      for (const Value* v : values) {
        const double d = v->double_value();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        char buf[8];
        std::memcpy(buf, &bits, sizeof(bits));
        out->append(buf, sizeof(buf));
      }
      return;
    }
    case ChunkEncoding::kDictionary: {
      // First-occurrence dictionary, then RLE runs of codes.
      std::map<std::string_view, uint32_t> index;
      std::vector<std::string_view> dict;
      std::vector<uint32_t> codes;
      codes.reserve(values.size());
      for (const Value* v : values) {
        const std::string& s = v->string_value();
        auto [it, inserted] =
            index.emplace(s, static_cast<uint32_t>(dict.size()));
        if (inserted) dict.push_back(s);
        codes.push_back(it->second);
      }
      Codec::EncodeU32(static_cast<uint32_t>(dict.size()), out);
      for (std::string_view s : dict) Codec::EncodeString(s, out);
      for (size_t i = 0; i < codes.size();) {
        size_t run = 1;
        while (i + run < codes.size() && codes[i + run] == codes[i]) ++run;
        PutVarint(codes[i], out);
        PutVarint(run, out);
        i += run;
      }
      return;
    }
    case ChunkEncoding::kGeneric: {
      for (const Value* v : values) Codec::EncodeValue(*v, out);
      return;
    }
  }
}

Status DecodeChunkData(ChunkEncoding encoding, DataType kind,
                       std::string_view data, size_t non_null,
                       std::vector<Value>* out) {
  size_t pos = 0;
  out->clear();
  // Counts come from the file: size the vector by what the data can
  // hold, not by what it claims.
  out->reserve(std::min(non_null, data.size()));
  switch (encoding) {
    case ChunkEncoding::kDeltaVarint: {
      int64_t acc = 0;
      for (size_t i = 0; i < non_null; ++i) {
        GSN_ASSIGN_OR_RETURN(uint64_t raw, GetVarint(data, &pos));
        acc += UnZigZag(raw);
        out->push_back(kind == DataType::kTimestamp ? Value::TimestampVal(acc)
                                                    : Value::Int(acc));
      }
      break;
    }
    case ChunkEncoding::kRaw: {
      if (kind == DataType::kBool) {
        if (data.size() < non_null) {
          return Status::IntegrityError("truncated bool chunk");
        }
        for (size_t i = 0; i < non_null; ++i) {
          out->push_back(Value::Bool(data[i] != 0));
        }
        pos = non_null;
        break;
      }
      if (data.size() < non_null * 8) {
        return Status::IntegrityError("truncated double chunk");
      }
      for (size_t i = 0; i < non_null; ++i) {
        uint64_t bits;
        std::memcpy(&bits, data.data() + i * 8, sizeof(bits));
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        out->push_back(Value::Double(d));
      }
      pos = non_null * 8;
      break;
    }
    case ChunkEncoding::kDictionary: {
      GSN_ASSIGN_OR_RETURN(uint32_t dict_size, Codec::DecodeU32(data, &pos));
      std::vector<std::string> dict;
      dict.reserve(std::min<size_t>(dict_size, data.size()));
      for (uint32_t i = 0; i < dict_size; ++i) {
        GSN_ASSIGN_OR_RETURN(std::string s, Codec::DecodeString(data, &pos));
        dict.push_back(std::move(s));
      }
      while (out->size() < non_null) {
        GSN_ASSIGN_OR_RETURN(uint64_t code, GetVarint(data, &pos));
        GSN_ASSIGN_OR_RETURN(uint64_t run, GetVarint(data, &pos));
        if (code >= dict.size() || run == 0 ||
            out->size() + run > non_null) {
          return Status::IntegrityError("corrupt dictionary run in segment chunk");
        }
        for (uint64_t i = 0; i < run; ++i) {
          out->push_back(Value::String(dict[code]));
        }
      }
      break;
    }
    case ChunkEncoding::kGeneric: {
      for (size_t i = 0; i < non_null; ++i) {
        GSN_ASSIGN_OR_RETURN(Value v, Codec::DecodeValue(data, &pos));
        out->push_back(std::move(v));
      }
      break;
    }
  }
  return Status::OK();
}

// -- segment reading --------------------------------------------------------

/// Where a segment's bytes come from: an in-memory image or a file read
/// with pread at computed offsets. Every read is checked against the
/// size before a buffer is sized from a length found in the file.
class SegmentSource {
 public:
  explicit SegmentSource(std::string_view contents)
      : contents_(contents), size_(contents.size()) {}
  SegmentSource(int fd, uint64_t size) : fd_(fd), size_(size) {}

  uint64_t size() const { return size_; }

  /// `len` bytes at `offset`; `scratch` backs the view for file reads.
  Result<std::string_view> Read(uint64_t offset, uint64_t len,
                                std::string* scratch) const {
    if (offset > size_ || len > size_ - offset) {
      return Status::IntegrityError("segment record runs past end of file");
    }
    if (fd_ < 0) return contents_.substr(offset, len);
    scratch->resize(len);
    size_t done = 0;
    while (done < len) {
      const ssize_t n = ::pread(fd_, scratch->data() + done, len - done,
                                static_cast<off_t>(offset + done));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IoError("short read from segment file");
      done += static_cast<size_t>(n);
    }
    return std::string_view(*scratch);
  }

  /// Reads and CRC-checks the record at `*offset` whose payload is
  /// `payload_len` bytes, advancing `*offset` past it.
  Result<std::string_view> ReadRecordOfLength(uint64_t* offset,
                                              uint64_t payload_len,
                                              std::string* scratch) const {
    GSN_ASSIGN_OR_RETURN(
        std::string_view record,
        Read(*offset, payload_len + kLogRecordFramingBytes, scratch));
    std::vector<std::string_view> payloads;
    bool torn = false;
    ScanLogRecords(record, &payloads, &torn);
    if (torn || payloads.size() != 1) {
      return Status::IntegrityError("corrupt segment record at offset " +
                                    std::to_string(*offset));
    }
    *offset += record.size();
    return payloads[0];
  }

  /// Reads and CRC-checks the record at `*offset`, advancing past it.
  Result<std::string_view> ReadRecord(uint64_t* offset,
                                      std::string* scratch) const {
    GSN_ASSIGN_OR_RETURN(std::string_view header,
                         Read(*offset, kLogRecordHeaderBytes, scratch));
    GSN_ASSIGN_OR_RETURN(uint32_t len, LogRecordPayloadLength(header));
    return ReadRecordOfLength(offset, len, scratch);
  }

 private:
  std::string_view contents_;
  int fd_ = -1;
  uint64_t size_ = 0;
};

struct ChunkView {
  ChunkEncoding encoding = ChunkEncoding::kGeneric;
  DataType kind = DataType::kBinary;
  uint32_t null_count = 0;
  bool has_zone = false;
  Value zone_min, zone_max;
  uint32_t data_len = 0;
  /// Where the data lives: inside the (verified) group record in
  /// version 1, in the chunk record at `record_offset` otherwise.
  std::string_view inline_data;
  uint64_t record_offset = 0;
};

struct GroupView {
  uint32_t rows = 0;
  std::vector<ChunkView> chunks;
  std::string buffer;  ///< backs the views when the source copies
};

/// The records a scan walks before decoding anything: header, group
/// records (chunk headers) and the footer commit marker.
struct SegmentLayout {
  SegmentHeader header;
  std::deque<GroupView> groups;  // deque: views into buffers stay put
};

Result<SegmentHeader> ParseHeaderPayload(std::string_view payload) {
  size_t pos = 0;
  SegmentHeader h;
  GSN_ASSIGN_OR_RETURN(uint8_t tag, GetU8(payload, &pos));
  if (tag != kHeaderRecord) return Status::IntegrityError("bad segment header tag");
  GSN_ASSIGN_OR_RETURN(h.version, Codec::DecodeU32(payload, &pos));
  if (h.version != kSegmentVersion && h.version != kInlineChunkVersion) {
    return Status::IntegrityError("unsupported segment version " +
                                  std::to_string(h.version));
  }
  GSN_ASSIGN_OR_RETURN(h.table, Codec::DecodeString(payload, &pos));
  GSN_ASSIGN_OR_RETURN(h.row_schema, Codec::DecodeSchema(payload, &pos));
  GSN_ASSIGN_OR_RETURN(int64_t row_count, Codec::DecodeI64(payload, &pos));
  h.row_count = static_cast<uint64_t>(row_count);
  GSN_ASSIGN_OR_RETURN(h.min_timed, Codec::DecodeI64(payload, &pos));
  GSN_ASSIGN_OR_RETURN(h.max_timed, Codec::DecodeI64(payload, &pos));
  GSN_ASSIGN_OR_RETURN(h.group_count, Codec::DecodeU32(payload, &pos));
  return h;
}

Status ParseChunkHeader(std::string_view payload, size_t* pos,
                        ChunkView* out) {
  GSN_ASSIGN_OR_RETURN(uint8_t encoding, GetU8(payload, pos));
  if (encoding > static_cast<uint8_t>(ChunkEncoding::kGeneric)) {
    return Status::IntegrityError("unknown chunk encoding");
  }
  out->encoding = static_cast<ChunkEncoding>(encoding);
  GSN_ASSIGN_OR_RETURN(uint8_t kind, GetU8(payload, pos));
  out->kind = static_cast<DataType>(kind);
  GSN_ASSIGN_OR_RETURN(out->null_count, Codec::DecodeU32(payload, pos));
  GSN_ASSIGN_OR_RETURN(uint8_t has_zone, GetU8(payload, pos));
  out->has_zone = has_zone != 0;
  if (out->has_zone) {
    GSN_ASSIGN_OR_RETURN(out->zone_min, Codec::DecodeValue(payload, pos));
    GSN_ASSIGN_OR_RETURN(out->zone_max, Codec::DecodeValue(payload, pos));
  }
  GSN_ASSIGN_OR_RETURN(out->data_len, Codec::DecodeU32(payload, pos));
  return Status::OK();
}

Status ParseGroup(std::string_view payload, size_t fields, bool inline_chunks,
                  GroupView* group) {
  size_t pos = 0;
  GSN_ASSIGN_OR_RETURN(uint8_t tag, GetU8(payload, &pos));
  if (tag != kGroupRecord) return Status::IntegrityError("bad group record tag");
  GSN_ASSIGN_OR_RETURN(group->rows, Codec::DecodeU32(payload, &pos));
  GSN_ASSIGN_OR_RETURN(uint32_t field_count, Codec::DecodeU32(payload, &pos));
  if (field_count != fields) {
    return Status::IntegrityError("group field count mismatch");
  }
  group->chunks.resize(fields);
  for (ChunkView& chunk : group->chunks) {
    GSN_RETURN_IF_ERROR(ParseChunkHeader(payload, &pos, &chunk));
    if (chunk.null_count > group->rows) {
      return Status::IntegrityError("chunk null count exceeds its rows");
    }
    if (!inline_chunks) continue;
    if (chunk.data_len > payload.size() - pos) {
      return Status::IntegrityError("truncated chunk data");
    }
    chunk.inline_data = payload.substr(pos, chunk.data_len);
    pos += chunk.data_len;
  }
  if (pos != payload.size()) {
    return Status::IntegrityError("trailing bytes in group record");
  }
  return Status::OK();
}

/// Reads and CRC-checks a version-2 chunk record; returns its data.
Result<std::string_view> ReadChunkRecord(const SegmentSource& src,
                                         const ChunkView& chunk,
                                         std::string* scratch) {
  uint64_t offset = chunk.record_offset;
  GSN_ASSIGN_OR_RETURN(
      std::string_view payload,
      src.ReadRecordOfLength(&offset, uint64_t{chunk.data_len} + 1, scratch));
  if (static_cast<uint8_t>(payload[0]) != kChunkRecord) {
    return Status::IntegrityError("bad chunk record tag");
  }
  return payload.substr(1);
}

/// Walks header, group records and footer, checking the record count
/// (the footer must close the file right after the last group) and
/// the commit marker. Chunk records are placed by their headers'
/// lengths and stepped over; `verify_chunks` reads and CRC-checks
/// them too (whole-file validation).
Status ReadLayout(const SegmentSource& src, bool verify_chunks,
                  SegmentLayout* layout) {
  uint64_t offset = 0;
  std::string scratch;
  GSN_ASSIGN_OR_RETURN(std::string_view head, src.ReadRecord(&offset, &scratch));
  GSN_ASSIGN_OR_RETURN(layout->header, ParseHeaderPayload(head));
  const bool inline_chunks = layout->header.version == kInlineChunkVersion;
  const size_t fields = layout->header.row_schema.size();
  for (uint32_t g = 0; g < layout->header.group_count; ++g) {
    GroupView& group = layout->groups.emplace_back();
    GSN_ASSIGN_OR_RETURN(std::string_view payload,
                         src.ReadRecord(&offset, &group.buffer));
    GSN_RETURN_IF_ERROR(ParseGroup(payload, fields, inline_chunks, &group));
    if (inline_chunks) continue;
    for (ChunkView& chunk : group.chunks) {
      chunk.record_offset = offset;
      if (verify_chunks) {
        GSN_RETURN_IF_ERROR(ReadChunkRecord(src, chunk, &scratch).status());
      }
      offset += uint64_t{chunk.data_len} + 1 + kLogRecordFramingBytes;
    }
  }
  GSN_ASSIGN_OR_RETURN(std::string_view footer,
                       src.ReadRecord(&offset, &scratch));
  size_t pos = 0;
  GSN_ASSIGN_OR_RETURN(uint8_t tag, GetU8(footer, &pos));
  if (tag != kFooterRecord) return Status::IntegrityError("missing segment footer");
  GSN_ASSIGN_OR_RETURN(int64_t rows, Codec::DecodeI64(footer, &pos));
  if (static_cast<uint64_t>(rows) != layout->header.row_count) {
    return Status::IntegrityError("segment footer row count mismatch");
  }
  GSN_RETURN_IF_ERROR(Codec::DecodeU32(footer, &pos).status());
  if (offset != src.size()) {
    return Status::IntegrityError("records after the segment footer");
  }
  return Status::OK();
}

/// Expands one chunk's data (null bitmap + encoded non-null values)
/// into `column`, one Value per row of the group.
Status DecodeColumn(const ChunkView& chunk, std::string_view data,
                    uint32_t rows, std::vector<Value>* scratch,
                    std::vector<Value>* column) {
  const size_t non_null = rows - chunk.null_count;
  if (chunk.null_count == 0) {
    GSN_RETURN_IF_ERROR(
        DecodeChunkData(chunk.encoding, chunk.kind, data, non_null, column));
    if (column->size() != rows) {
      return Status::IntegrityError("chunk value count mismatch");
    }
    return Status::OK();
  }
  const size_t bitmap_len = (static_cast<size_t>(rows) + 7) / 8;
  if (data.size() < bitmap_len) {
    return Status::IntegrityError("truncated null bitmap");
  }
  const std::string_view bitmap = data.substr(0, bitmap_len);
  GSN_RETURN_IF_ERROR(DecodeChunkData(chunk.encoding, chunk.kind,
                                      data.substr(bitmap_len), non_null,
                                      scratch));
  column->clear();
  column->reserve(rows);
  size_t next = 0;
  for (uint32_t i = 0; i < rows; ++i) {
    if ((static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1) {
      column->push_back(Value::Null());
    } else {
      if (next >= scratch->size()) {
        return Status::IntegrityError("chunk value underflow");
      }
      column->push_back(std::move((*scratch)[next++]));
    }
  }
  return Status::OK();
}

/// Field index → bounds that reference it (by lowercased column name).
std::map<size_t, std::vector<const sql::ScanBound*>> BindBounds(
    const Schema& row_schema, const sql::ScanPredicate& predicate) {
  std::map<size_t, std::vector<const sql::ScanBound*>> out;
  for (const sql::ScanBound& bound : predicate.bounds) {
    Result<size_t> idx = row_schema.IndexOf(bound.column);
    if (idx.ok()) out[*idx].push_back(&bound);
  }
  return out;
}

}  // namespace

std::string EncodeRowAsElement(const Relation::Row& row) {
  StreamElement e;
  if (!row.empty() && row[0].is_timestamp()) {
    e.timed = row[0].timestamp_value();
  }
  e.values.assign(row.begin() + (row.empty() ? 0 : 1), row.end());
  return Codec::EncodeElementToString(e);
}

uint32_t RowsCrc(const Relation::RowList& rows, size_t count) {
  std::string buf;
  for (size_t i = 0; i < count && i < rows.size(); ++i) {
    buf += EncodeRowAsElement(*rows[i]);
  }
  return Crc32(buf.data(), buf.size());
}

Result<EncodedSegment> EncodeSegment(const std::string& table,
                                     const Schema& row_schema,
                                     const Relation::RowList& rows,
                                     size_t rows_per_chunk) {
  if (rows.empty()) {
    return Status::InvalidArgument("cannot encode an empty segment");
  }
  if (rows_per_chunk == 0) rows_per_chunk = 1024;
  const size_t fields = row_schema.size();
  for (const Relation::SharedRow& row : rows) {
    if (row == nullptr || row->size() != fields) {
      return Status::InvalidArgument("row arity does not match schema for " +
                                     table);
    }
  }

  EncodedSegment seg;
  seg.row_count = rows.size();
  seg.min_timed = (*rows.front())[0].is_timestamp()
                      ? (*rows.front())[0].timestamp_value()
                      : 0;
  seg.max_timed = seg.min_timed;
  for (const Relation::SharedRow& row : rows) {
    if (!(*row)[0].is_timestamp()) continue;
    const Timestamp t = (*row)[0].timestamp_value();
    if (t < seg.min_timed) seg.min_timed = t;
    if (t > seg.max_timed) seg.max_timed = t;
  }
  seg.rows_crc = RowsCrc(rows, rows.size());

  const uint32_t group_count = static_cast<uint32_t>(
      (rows.size() + rows_per_chunk - 1) / rows_per_chunk);

  std::string header;
  header.push_back(static_cast<char>(kHeaderRecord));
  Codec::EncodeU32(kSegmentVersion, &header);
  Codec::EncodeString(table, &header);
  Codec::EncodeSchema(row_schema, &header);
  Codec::EncodeI64(static_cast<int64_t>(seg.row_count), &header);
  Codec::EncodeI64(seg.min_timed, &header);
  Codec::EncodeI64(seg.max_timed, &header);
  Codec::EncodeU32(group_count, &header);
  seg.contents += FrameLogRecord(header);

  for (size_t start = 0; start < rows.size(); start += rows_per_chunk) {
    const size_t end = std::min(rows.size(), start + rows_per_chunk);
    const size_t n = end - start;
    std::string group;
    group.push_back(static_cast<char>(kGroupRecord));
    Codec::EncodeU32(static_cast<uint32_t>(n), &group);
    Codec::EncodeU32(static_cast<uint32_t>(fields), &group);
    std::string chunk_records;
    for (size_t f = 0; f < fields; ++f) {
      // Column-wise view of this group's field f.
      std::vector<bool> nulls(n, false);
      std::vector<const Value*> values;
      values.reserve(n);
      ZoneBuilder zone;
      for (size_t i = 0; i < n; ++i) {
        const Value& v = (*rows[start + i])[f];
        if (v.is_null()) {
          nulls[i] = true;
          continue;
        }
        values.push_back(&v);
        zone.Update(v);
      }
      DataType kind;
      const ChunkEncoding encoding = ClassifyColumn(values, &kind);
      const uint32_t null_count = static_cast<uint32_t>(n - values.size());

      group.push_back(static_cast<char>(encoding));
      group.push_back(static_cast<char>(kind));
      Codec::EncodeU32(null_count, &group);
      group.push_back(zone.has_zone() ? 1 : 0);
      if (zone.has_zone()) {
        Codec::EncodeValue(zone.min, &group);
        Codec::EncodeValue(zone.max, &group);
      }
      std::string data(1, static_cast<char>(kChunkRecord));
      if (null_count > 0) {
        std::string bitmap((n + 7) / 8, '\0');
        for (size_t i = 0; i < n; ++i) {
          if (nulls[i]) bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
        }
        data += bitmap;
      }
      EncodeChunkData(encoding, kind, values, &data);
      Codec::EncodeU32(static_cast<uint32_t>(data.size() - 1), &group);
      chunk_records += FrameLogRecord(data);
      ++seg.chunk_count;
    }
    seg.contents += FrameLogRecord(group);
    seg.contents += chunk_records;
  }

  std::string footer;
  footer.push_back(static_cast<char>(kFooterRecord));
  Codec::EncodeI64(static_cast<int64_t>(seg.row_count), &footer);
  Codec::EncodeU32(seg.rows_crc, &footer);
  seg.contents += FrameLogRecord(footer);
  return seg;
}

Result<SegmentHeader> ParseSegmentHeader(std::string_view contents) {
  const SegmentSource src(contents);
  uint64_t offset = 0;
  std::string scratch;
  GSN_ASSIGN_OR_RETURN(std::string_view head, src.ReadRecord(&offset, &scratch));
  return ParseHeaderPayload(head);
}

bool ValidateSegmentContents(std::string_view contents) {
  SegmentLayout layout;
  return ReadLayout(SegmentSource(contents), /*verify_chunks=*/true, &layout)
      .ok();
}

namespace {

Status ScanSource(const SegmentSource& src, const Schema& row_schema,
                  const sql::ScanPredicate& predicate, Relation::RowList* out,
                  SegmentScanStats* stats) {
  SegmentLayout layout;
  GSN_RETURN_IF_ERROR(ReadLayout(src, /*verify_chunks=*/false, &layout));
  const SegmentHeader& header = layout.header;
  if (!(header.row_schema == row_schema)) {
    return Status::IntegrityError("segment schema mismatch for table " +
                            header.table + ": stored " +
                            header.row_schema.ToString() + " vs live " +
                            row_schema.ToString());
  }
  const bool inline_chunks = header.version == kInlineChunkVersion;
  const auto bounds_by_field = BindBounds(row_schema, predicate);
  const size_t fields = row_schema.size();
  std::vector<bool> needed(fields);
  for (size_t f = 0; f < fields; ++f) {
    needed[f] = predicate.NeedsColumn(StrToLower(row_schema.field(f).name));
  }

  Relation::RowList rows;
  std::string scratch;
  std::vector<Value> decoded;
  std::vector<std::vector<Value>> columns(fields);
  for (const GroupView& group : layout.groups) {
    bool prune = false;
    for (size_t f = 0; f < fields && !prune; ++f) {
      const ChunkView& chunk = group.chunks[f];
      if (!chunk.has_zone) continue;
      auto it = bounds_by_field.find(f);
      if (it == bounds_by_field.end()) continue;
      for (const sql::ScanBound* bound : it->second) {
        if (!sql::RangeMayMatch(chunk.zone_min, chunk.zone_max, *bound)) {
          // No non-null value in this group can satisfy the conjunct,
          // and NULL rows fail it too: the whole group is dead.
          prune = true;
          break;
        }
      }
    }
    if (stats != nullptr) {
      ++stats->groups_total;
      stats->chunks_total += static_cast<int64_t>(fields);
    }
    if (prune) {
      if (stats != nullptr) {
        ++stats->groups_pruned;
        stats->chunks_pruned += static_cast<int64_t>(fields);
      }
      continue;
    }
    for (size_t f = 0; f < fields; ++f) {
      if (!needed[f]) continue;
      const ChunkView& chunk = group.chunks[f];
      std::string_view data = chunk.inline_data;
      if (!inline_chunks) {
        GSN_ASSIGN_OR_RETURN(data, ReadChunkRecord(src, chunk, &scratch));
      }
      GSN_RETURN_IF_ERROR(
          DecodeColumn(chunk, data, group.rows, &decoded, &columns[f]));
      if (stats != nullptr) ++stats->chunks_decoded;
    }
    for (uint32_t i = 0; i < group.rows; ++i) {
      Relation::Row row;
      row.reserve(fields);
      for (size_t f = 0; f < fields; ++f) {
        row.push_back(needed[f] ? std::move(columns[f][i]) : Value::Null());
      }
      rows.push_back(Relation::MakeRow(std::move(row)));
    }
    if (stats != nullptr) stats->rows_decoded += group.rows;
  }
  out->insert(out->end(), std::make_move_iterator(rows.begin()),
              std::make_move_iterator(rows.end()));
  return Status::OK();
}

}  // namespace

Status ScanSegmentContents(std::string_view contents, const Schema& row_schema,
                           const sql::ScanPredicate& predicate,
                           Relation::RowList* out, SegmentScanStats* stats) {
  return ScanSource(SegmentSource(contents), row_schema, predicate, out,
                    stats);
}

Status ScanSegmentFile(const std::string& path, const Schema& row_schema,
                       const sql::ScanPredicate& predicate,
                       Relation::RowList* out, SegmentScanStats* stats) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open segment " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  Status status = Status::OK();
  if (::fstat(fd, &st) != 0) {
    status = Status::IoError("cannot stat segment " + path + ": " +
                             std::strerror(errno));
  } else {
    status = ScanSource(SegmentSource(fd, static_cast<uint64_t>(st.st_size)),
                        row_schema, predicate, out, stats);
  }
  ::close(fd);
  return status;
}

}  // namespace gsn::storage::columnar
