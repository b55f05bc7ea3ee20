#include "gsn/storage/persistence_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>

namespace gsn::storage {

namespace {
constexpr uint8_t kRecordMagic = 0xA7;

/// Slice-by-8 tables: table 0 is the classic bytewise table; table k
/// maps byte i to its CRC followed by k zero bytes, so eight lookups
/// fold eight input bytes per step.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

Status FlushAndFsync(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::IoError("flush failed for " + path);
  }
  if (::fsync(::fileno(file)) != 0) {
    return Status::IoError("fsync failed for " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}
}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  static const CrcTables kTables = BuildCrcTables();
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string FrameLogRecord(std::string_view payload) {
  std::string record;
  record.reserve(payload.size() + 9);
  record.push_back(static_cast<char>(kRecordMagic));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    record.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  record.append(payload);
  const uint32_t crc = Crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    record.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return record;
}

Result<uint32_t> LogRecordPayloadLength(std::string_view header) {
  if (header.size() < kLogRecordHeaderBytes ||
      static_cast<uint8_t>(header[0]) != kRecordMagic) {
    return Status::IntegrityError("bad log record header");
  }
  return LoadLe32(reinterpret_cast<const uint8_t*>(header.data()) + 1);
}

size_t ScanLogRecords(std::string_view contents,
                      std::vector<std::string_view>* payloads,
                      bool* torn_tail) {
  if (torn_tail != nullptr) *torn_tail = false;
  size_t pos = 0;
  while (pos < contents.size()) {
    // A torn header or a wrong magic ends the valid prefix.
    Result<uint32_t> len = LogRecordPayloadLength(contents.substr(pos));
    if (!len.ok()) break;
    const size_t payload_start = pos + kLogRecordHeaderBytes;
    if (contents.size() - payload_start < static_cast<size_t>(*len) + 4) {
      break;  // torn tail (or a length so corrupt it runs past the end)
    }
    const std::string_view payload = contents.substr(payload_start, *len);
    const uint32_t stored_crc = LoadLe32(
        reinterpret_cast<const uint8_t*>(payload.data() + payload.size()));
    if (Crc32(payload.data(), payload.size()) != stored_crc) break;
    if (payloads != nullptr) payloads->push_back(payload);
    pos = payload_start + *len + 4;
  }
  if (pos < contents.size() && torn_tail != nullptr) *torn_tail = true;
  return pos;
}

Result<std::string> ReadLogFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::string();  // first boot: empty history
  // One read sized from the file's size; the spare byte lets a file
  // that grew since fstat keep reading, and a short read just ends.
  struct stat st {};
  const size_t expected =
      ::fstat(fd, &st) == 0 && st.st_size > 0 ? static_cast<size_t>(st.st_size)
                                              : 0;
  std::string contents(expected + 1, '\0');
  size_t filled = 0;
  for (;;) {
    if (filled == contents.size()) contents.resize(contents.size() * 2);
    const ssize_t n =
        ::read(fd, contents.data() + filled, contents.size() - filled);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return Status::IoError("read failed for " + path + ": " +
                             std::strerror(err));
    }
    if (n == 0) break;
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  contents.resize(filled);
  return contents;
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open temp file: " + tmp);
  }
  if (!contents.empty() &&
      std::fwrite(contents.data(), 1, contents.size(), f) != contents.size()) {
    std::fclose(f);
    return Status::IoError("short write to " + tmp);
  }
  const Status synced = FlushAndFsync(f, tmp);
  std::fclose(f);
  if (!synced.ok()) return synced;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<std::unique_ptr<PersistenceLog>> PersistenceLog::Open(
    const std::string& path) {
  // Torn-tail repair: find the valid prefix and truncate anything after
  // it, so appends are never written behind a corrupt record (where
  // every future Recover would stop before them and silently lose them).
  GSN_ASSIGN_OR_RETURN(std::string contents, ReadLogFile(path));
  bool torn = false;
  const size_t valid_prefix = ScanLogRecords(contents, nullptr, &torn);
  if (torn) {
    std::error_code ec;
    std::filesystem::resize_file(path, valid_prefix, ec);
    if (ec) {
      return Status::IoError("cannot truncate torn tail of " + path + ": " +
                             ec.message());
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError("cannot open persistence log: " + path);
  }
  return std::unique_ptr<PersistenceLog>(new PersistenceLog(path, f));
}

Result<std::unique_ptr<PersistenceLog>> PersistenceLog::Rewrite(
    const std::string& path, const std::vector<StreamElement>& elements) {
  std::string contents;
  for (const StreamElement& element : elements) {
    std::string payload;
    Codec::EncodeElement(element, &payload);
    contents += FrameLogRecord(payload);
  }
  GSN_RETURN_IF_ERROR(WriteFileAtomic(path, contents));
  return Open(path);
}

PersistenceLog::~PersistenceLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status PersistenceLog::Append(const StreamElement& element) {
  std::string payload;
  Codec::EncodeElement(element, &payload);
  const std::string record = FrameLogRecord(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return Status::IoError("short write to " + path_);
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("flush failed for " + path_);
  }
  ++appended_;
  return Status::OK();
}

Status PersistenceLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushAndFsync(file_, path_);
}

size_t PersistenceLog::appended_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

Result<std::vector<StreamElement>> PersistenceLog::Recover(
    const std::string& path, bool* truncated_tail) {
  GSN_ASSIGN_OR_RETURN(std::string contents, ReadLogFile(path));
  std::vector<std::string_view> payloads;
  ScanLogRecords(contents, &payloads, truncated_tail);
  std::vector<StreamElement> out;
  out.reserve(payloads.size());
  for (const std::string_view payload : payloads) {
    Result<StreamElement> elem = Codec::DecodeElementFromString(payload);
    if (!elem.ok()) {
      // An intact frame around an undecodable payload is corruption the
      // CRC missed; treat like a torn tail.
      if (truncated_tail != nullptr) *truncated_tail = true;
      break;
    }
    out.push_back(*std::move(elem));
  }
  return out;
}

}  // namespace gsn::storage
