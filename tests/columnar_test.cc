// Tiered columnar history tests (docs/STORAGE.md): segment encode/
// decode round trips, compression encodings, zone-map pruning, the
// torn-tail commit marker, catalog recovery/reconciliation, and the
// container-level seam guarantees (differential queries across tiers,
// crash-during-flush exactly-once, EXPLAIN ANALYZE prune counters).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>

#include "gsn/container/container.h"
#include "gsn/container/management_interface.h"
#include "gsn/container/web_interface.h"
#include "gsn/storage/columnar/catalog.h"
#include "gsn/storage/columnar/segment.h"
#include "gsn/storage/persistence_log.h"
#include "gsn/util/export.h"

namespace gsn {
namespace {

namespace fs = std::filesystem;
using storage::columnar::SegmentCatalog;
using storage::columnar::SegmentMeta;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("gsn_columnar_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Schema WideRowSchema() {
  Schema schema;
  schema.AddField("timed", DataType::kTimestamp);
  schema.AddField("seq", DataType::kInt);
  schema.AddField("temp", DataType::kDouble);
  schema.AddField("site", DataType::kString);
  schema.AddField("ok", DataType::kBool);
  return schema;
}

/// Rows [timed, seq, temp, site, ok]; every 7th site and every 5th
/// temp are NULL so the null bitmaps get exercised.
Relation::RowList WideRows(int n, Timestamp start = 1000,
                           Timestamp step = 100) {
  Relation::RowList rows;
  static const char* kSites[] = {"zurich", "lausanne", "geneva"};
  for (int i = 0; i < n; ++i) {
    rows.push_back(Relation::MakeRow(
        {Value::TimestampVal(start + i * step), Value::Int(i),
         i % 5 == 4 ? Value::Null() : Value::Double(20.0 + i * 0.25),
         i % 7 == 6 ? Value::Null() : Value::String(kSites[i % 3]),
         Value::Bool(i % 2 == 0)}));
  }
  return rows;
}

sql::ScanBound Bound(const std::string& column, sql::ScanBound::Op op,
                     Value value) {
  sql::ScanBound bound;
  bound.column = column;
  bound.op = op;
  bound.value = std::move(value);
  return bound;
}

// ------------------------------------------------------------ Segment unit

TEST(SegmentTest, RoundTripAllTypesAndNulls) {
  const Schema schema = WideRowSchema();
  const Relation::RowList rows = WideRows(230);
  auto encoded = storage::columnar::EncodeSegment("t", schema, rows, 64);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->row_count, 230u);
  EXPECT_EQ(encoded->min_timed, 1000);
  EXPECT_EQ(encoded->max_timed, 1000 + 229 * 100);
  EXPECT_TRUE(storage::columnar::ValidateSegmentContents(encoded->contents));

  auto header = storage::columnar::ParseSegmentHeader(encoded->contents);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->table, "t");
  EXPECT_EQ(header->group_count, 4u);  // ceil(230 / 64)

  Relation::RowList decoded;
  storage::columnar::SegmentScanStats stats;
  ASSERT_TRUE(storage::columnar::ScanSegmentContents(
                  encoded->contents, schema, sql::ScanPredicate{}, &decoded,
                  &stats)
                  .ok());
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(*decoded[i], *rows[i]) << "row " << i;
  }
  EXPECT_EQ(stats.groups_pruned, 0);
  EXPECT_EQ(stats.rows_decoded, 230);
}

TEST(SegmentTest, DictionaryAndDeltaBeatGenericEncoding) {
  // Sequential timestamps/ints delta-compress and the 3-value site
  // column dictionary+RLE compresses: the whole segment must land well
  // under the row-major Codec encoding of the same rows.
  const Schema schema = WideRowSchema();
  const Relation::RowList rows = WideRows(2000);
  auto encoded = storage::columnar::EncodeSegment("t", schema, rows, 1024);
  ASSERT_TRUE(encoded.ok());
  size_t row_major = 0;
  for (const Relation::SharedRow& row : rows) {
    row_major += storage::columnar::EncodeRowAsElement(*row).size();
  }
  EXPECT_LT(encoded->contents.size(), row_major / 2)
      << "columnar=" << encoded->contents.size() << " row-major=" << row_major;
}

TEST(SegmentTest, ZoneMapsPruneGroupsExactly) {
  const Schema schema = WideRowSchema();
  const Relation::RowList rows = WideRows(1000);  // timed 1000..100900
  auto encoded = storage::columnar::EncodeSegment("t", schema, rows, 100);
  ASSERT_TRUE(encoded.ok());

  // timed > 95900 keeps only rows 950.. — the last group.
  sql::ScanPredicate predicate;
  predicate.bounds.push_back(Bound("timed", sql::ScanBound::Op::kGreater,
                                   Value::TimestampVal(1000 + 949 * 100)));
  Relation::RowList out;
  storage::columnar::SegmentScanStats stats;
  ASSERT_TRUE(storage::columnar::ScanSegmentContents(encoded->contents, schema,
                                                     predicate, &out, &stats)
                  .ok());
  EXPECT_EQ(stats.groups_total, 10);
  EXPECT_EQ(stats.groups_pruned, 9);
  ASSERT_EQ(out.size(), 100u);  // whole surviving group; WHERE refilters
  EXPECT_EQ((*out[0])[1], Value::Int(900));

  // An int bound prunes on the seq column the same way.
  sql::ScanPredicate by_seq;
  by_seq.bounds.push_back(
      Bound("seq", sql::ScanBound::Op::kLess, Value::Int(100)));
  out.clear();
  storage::columnar::SegmentScanStats stats2;
  ASSERT_TRUE(storage::columnar::ScanSegmentContents(encoded->contents, schema,
                                                     by_seq, &out, &stats2)
                  .ok());
  EXPECT_EQ(stats2.groups_pruned, 9);
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ((*out.back())[1], Value::Int(99));

  // A string equality bound outside the dictionary prunes everything.
  sql::ScanPredicate by_site;
  by_site.bounds.push_back(
      Bound("site", sql::ScanBound::Op::kEq, Value::String("zzz")));
  out.clear();
  storage::columnar::SegmentScanStats stats3;
  ASSERT_TRUE(storage::columnar::ScanSegmentContents(encoded->contents, schema,
                                                     by_site, &out, &stats3)
                  .ok());
  EXPECT_EQ(stats3.groups_pruned, 10);
  EXPECT_TRUE(out.empty());
}

TEST(SegmentTest, TornTailIsNotAValidSegment) {
  const Schema schema = WideRowSchema();
  auto encoded =
      storage::columnar::EncodeSegment("t", schema, WideRows(50), 16);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(storage::columnar::ValidateSegmentContents(encoded->contents));
  // Chopping anywhere inside the footer (the commit marker) or earlier
  // invalidates the whole file.
  for (size_t cut : {encoded->contents.size() - 1,
                     encoded->contents.size() - 5, encoded->contents.size() / 2,
                     size_t{3}, size_t{0}}) {
    EXPECT_FALSE(storage::columnar::ValidateSegmentContents(
        std::string_view(encoded->contents).substr(0, cut)))
        << "cut=" << cut;
  }
  // Flipping a payload byte breaks that record's CRC.
  std::string corrupt = encoded->contents;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(storage::columnar::ValidateSegmentContents(corrupt));
}

TEST(SegmentTest, RowsCrcIdentifiesFlushedPrefix) {
  const Relation::RowList rows = WideRows(20);
  const uint32_t first_ten = storage::columnar::RowsCrc(rows, 10);
  Relation::RowList prefix(rows.begin(), rows.begin() + 10);
  EXPECT_EQ(storage::columnar::RowsCrc(prefix, 10), first_ten);
  EXPECT_NE(storage::columnar::RowsCrc(rows, 11), first_ten);
  Relation::RowList other = WideRows(10, /*start=*/9999);
  EXPECT_NE(storage::columnar::RowsCrc(other, 10), first_ten);
}

// ------------------------------------------------------------ Catalog

/// The payloads of every record of a segment image, in file order.
std::vector<std::string_view> SegmentRecords(std::string_view contents) {
  std::vector<std::string_view> payloads;
  bool torn = false;
  storage::ScanLogRecords(contents, &payloads, &torn);
  EXPECT_FALSE(torn);
  return payloads;
}

/// Offset of `payload` (a view into `contents`) from the file start.
size_t OffsetIn(std::string_view contents, std::string_view payload) {
  return static_cast<size_t>(payload.data() - contents.data());
}

TEST(SegmentTest, ProjectionDecodesOnlyReferencedChunks) {
  const Schema schema = WideRowSchema();
  const Relation::RowList rows = WideRows(230);
  auto encoded = storage::columnar::EncodeSegment("t", schema, rows, 64);
  ASSERT_TRUE(encoded.ok());

  sql::ScanPredicate projected;
  projected.columns = std::set<std::string>{"seq", "site"};
  Relation::RowList out;
  storage::columnar::SegmentScanStats stats;
  ASSERT_TRUE(storage::columnar::ScanSegmentContents(
                  encoded->contents, schema, projected, &out, &stats)
                  .ok());
  ASSERT_EQ(out.size(), rows.size());
  EXPECT_EQ(stats.chunks_decoded, 4 * 2);  // 4 groups x {seq, site}
  for (size_t i = 0; i < rows.size(); ++i) {
    // Unreferenced fields come back NULL; the schema keeps its arity.
    ASSERT_EQ(out[i]->size(), schema.size());
    EXPECT_TRUE((*out[i])[0].is_null());
    EXPECT_EQ((*out[i])[1], (*rows[i])[1]) << i;
    EXPECT_TRUE((*out[i])[2].is_null());
    EXPECT_EQ((*out[i])[3], (*rows[i])[3]) << i;
    EXPECT_TRUE((*out[i])[4].is_null());
  }

  // count(*) needs no column: every row comes back, no chunk is read.
  sql::ScanPredicate none;
  none.columns = std::set<std::string>{};
  out.clear();
  storage::columnar::SegmentScanStats none_stats;
  ASSERT_TRUE(storage::columnar::ScanSegmentContents(
                  encoded->contents, schema, none, &out, &none_stats)
                  .ok());
  EXPECT_EQ(out.size(), rows.size());
  EXPECT_EQ(none_stats.chunks_decoded, 0);
}

TEST(SegmentTest, ChunkLengthPastEndOfFileIsRejected) {
  Schema schema;
  schema.AddField("timed", DataType::kTimestamp);
  schema.AddField("seq", DataType::kInt);
  Relation::RowList rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Relation::MakeRow(
        {Value::TimestampVal(1000 + i), Value::Int(i)}));
  }
  auto encoded = storage::columnar::EncodeSegment("t", schema, rows, 4);
  ASSERT_TRUE(encoded.ok());
  const std::string& contents = encoded->contents;
  const std::vector<std::string_view> records = SegmentRecords(contents);
  // A group record ends with its last chunk header's data_len:u32.
  // Claim ~4 GB there and re-frame the record so its CRC still holds.
  std::string group(records[1]);
  ASSERT_EQ(group[0], 'G');
  group.replace(group.size() - 4, 4, "\xff\xff\xff\xff");
  const size_t rest = OffsetIn(contents, records[2]) -
                      storage::kLogRecordHeaderBytes;
  const std::string forged = storage::FrameLogRecord(records[0]) +
                             storage::FrameLogRecord(group) +
                             contents.substr(rest);

  Relation::RowList out;
  const Status scanned = storage::columnar::ScanSegmentContents(
      forged, schema, sql::ScanPredicate{}, &out, nullptr);
  EXPECT_EQ(scanned.code(), StatusCode::kIntegrityError) << scanned.ToString();
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(storage::columnar::ValidateSegmentContents(forged));

  TempDir dir("forged");
  const std::string path = dir.path() + "/seg-1.gsnseg";
  ASSERT_TRUE(storage::WriteFileAtomic(path, forged).ok());
  EXPECT_FALSE(storage::columnar::ScanSegmentFile(path, schema,
                                                  sql::ScanPredicate{}, &out,
                                                  nullptr)
                   .ok());
  EXPECT_TRUE(out.empty());
}

TEST(SegmentCatalogTest, FlushListScanAndReopen) {
  TempDir dir("catalog");
  const Schema schema = WideRowSchema();
  SegmentCatalog::Options options;
  options.rows_per_chunk = 32;
  {
    auto catalog = SegmentCatalog::Open(dir.path(), options);
    ASSERT_TRUE(catalog.ok());
    auto first = (*catalog)->Flush("T1", schema, WideRows(100, 1000));
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->table, "t1");  // key is lowercased
    EXPECT_EQ(first->row_count, 100u);
    auto second =
        (*catalog)->Flush("t1", schema, WideRows(100, 1000 + 100 * 100));
    ASSERT_TRUE(second.ok());
    EXPECT_GT(second->id, first->id);
    EXPECT_EQ((*catalog)->segment_count(), 2u);
    EXPECT_GT((*catalog)->total_bytes(), 0u);
  }
  // Reopen: the journal replays and every row comes back, oldest first.
  auto catalog = SegmentCatalog::Open(dir.path(), options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->segment_count(), 2u);
  EXPECT_EQ((*catalog)->discarded_on_recovery(), 0u);
  EXPECT_EQ((*catalog)->orphans_removed(), 0u);
  Relation::RowList out;
  sql::ScanStats stats;
  ASSERT_TRUE(
      (*catalog)->Scan("t1", schema, sql::ScanPredicate{}, &out, &stats).ok());
  ASSERT_EQ(out.size(), 200u);
  EXPECT_EQ((*out[0])[1], Value::Int(0));
  EXPECT_EQ((*out[199])[1], Value::Int(99));
  EXPECT_EQ(stats.segments_total, 2);
  EXPECT_EQ(stats.segments_scanned, 2);
  EXPECT_EQ(stats.segment_rows, 200);
}

TEST(SegmentCatalogTest, TimeBoundSkipsWholeSegmentsWithoutOpeningThem) {
  TempDir dir("prune");
  const Schema schema = WideRowSchema();
  SegmentCatalog::Options options;
  options.rows_per_chunk = 25;
  auto catalog = SegmentCatalog::Open(dir.path(), options);
  ASSERT_TRUE(catalog.ok());
  // Three disjoint time ranges: [1000,10900], [11000,20900], [21000,30900].
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(
        (*catalog)->Flush("t", schema, WideRows(100, 1000 + s * 10000)).ok());
  }
  sql::ScanPredicate predicate;
  predicate.bounds.push_back(Bound("timed", sql::ScanBound::Op::kGreaterEq,
                                   Value::TimestampVal(21000)));
  Relation::RowList out;
  sql::ScanStats stats;
  ASSERT_TRUE((*catalog)->Scan("t", schema, predicate, &out, &stats).ok());
  EXPECT_EQ(stats.segments_total, 3);
  EXPECT_EQ(stats.segments_scanned, 1);  // two pruned by [min,max] alone
  EXPECT_GT(stats.chunks_pruned, 0);
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ((*out[0])[0].timestamp_value(), 21000);
}

TEST(SegmentCatalogTest, RecoveryDiscardsTornSegmentsAndDeletesOrphans) {
  TempDir dir("reconcile");
  const Schema schema = WideRowSchema();
  SegmentCatalog::Options options;
  std::string intact_path;
  std::string torn_path;
  {
    auto catalog = SegmentCatalog::Open(dir.path(), options);
    ASSERT_TRUE(catalog.ok());
    auto intact = (*catalog)->Flush("t", schema, WideRows(50));
    ASSERT_TRUE(intact.ok());
    intact_path = (*catalog)->SegmentPath(*intact);
    auto torn = (*catalog)->Flush("t", schema, WideRows(50, 99999));
    ASSERT_TRUE(torn.ok());
    torn_path = (*catalog)->SegmentPath(*torn);
  }
  // Tear the second segment's tail (crash mid-write after the journal
  // append would need a torn file too; either way the footer is gone).
  auto torn_contents = storage::ReadLogFile(torn_path);
  ASSERT_TRUE(torn_contents.ok());
  ASSERT_TRUE(storage::WriteFileAtomic(
                  torn_path, std::string_view(*torn_contents)
                                 .substr(0, torn_contents->size() - 7))
                  .ok());
  // Drop an orphan: a segment file the journal never heard of (the
  // classic kill -9 between file write and journal append).
  const std::string orphan = dir.path() + "/t/seg-999.gsnseg";
  {
    std::ofstream out(orphan, std::ios::binary);
    out << "not a segment";
  }
  auto catalog = SegmentCatalog::Open(dir.path(), options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->segment_count(), 1u);
  EXPECT_EQ((*catalog)->discarded_on_recovery(), 1u);
  EXPECT_EQ((*catalog)->orphans_removed(), 1u);
  EXPECT_TRUE(fs::exists(intact_path));
  EXPECT_FALSE(fs::exists(torn_path));
  EXPECT_FALSE(fs::exists(orphan));
  // The surviving segment still scans clean.
  Relation::RowList out;
  ASSERT_TRUE(
      (*catalog)->Scan("t", schema, sql::ScanPredicate{}, &out, nullptr).ok());
  EXPECT_EQ(out.size(), 50u);
}

TEST(SegmentCatalogTest, DropTableDeletesSegmentsDurably) {
  TempDir dir("drop");
  const Schema schema = WideRowSchema();
  SegmentCatalog::Options options;
  {
    auto catalog = SegmentCatalog::Open(dir.path(), options);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE((*catalog)->Flush("gone", schema, WideRows(10)).ok());
    ASSERT_TRUE((*catalog)->Flush("kept", schema, WideRows(10)).ok());
    ASSERT_TRUE((*catalog)->DropTable("GONE").ok());
    EXPECT_EQ((*catalog)->segment_count(), 1u);
    // Dropping an unknown table is a no-op, not an error.
    EXPECT_TRUE((*catalog)->DropTable("never-existed").ok());
  }
  auto catalog = SegmentCatalog::Open(dir.path(), options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->segment_count(), 1u);
  EXPECT_TRUE((*catalog)->SegmentsFor("gone").empty());
  EXPECT_EQ((*catalog)->SegmentsFor("kept").size(), 1u);
}

TEST(SegmentCatalogTest, CorruptUnreferencedChunkFailsOnlyQueriesReadingIt) {
  TempDir dir("corrupt_chunk");
  const Schema schema = WideRowSchema();
  SegmentCatalog::Options options;
  options.rows_per_chunk = 8;
  auto catalog = SegmentCatalog::Open(dir.path(), options);
  ASSERT_TRUE(catalog.ok());
  auto meta = (*catalog)->Flush("t", schema, WideRows(20));
  ASSERT_TRUE(meta.ok());
  const std::string path = (*catalog)->SegmentPath(*meta);

  // Records: header, then per group the group record and one chunk
  // record per field (timed seq temp site ok), then the footer.
  auto contents = storage::ReadLogFile(path);
  ASSERT_TRUE(contents.ok());
  const std::vector<std::string_view> records = SegmentRecords(*contents);
  ASSERT_EQ(records.size(), 1u + 3u * (1u + schema.size()) + 1u);
  const std::string_view site_chunk = records[1 + 1 + 3];  // group 0, site
  ASSERT_EQ(site_chunk[0], 'C');
  std::string corrupt = *contents;
  corrupt[OffsetIn(*contents, site_chunk) + 1] ^= 0x20;
  ASSERT_TRUE(storage::WriteFileAtomic(path, corrupt).ok());
  EXPECT_FALSE(storage::columnar::ValidateSegmentContents(corrupt));

  // A query that never reads `site` still answers from the segment.
  sql::ScanPredicate seq_only;
  seq_only.columns = std::set<std::string>{"seq"};
  Relation::RowList out;
  ASSERT_TRUE((*catalog)->Scan("t", schema, seq_only, &out, nullptr).ok());
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ((*out[19])[1], Value::Int(19));
  // One that reads it has the segment skipped, as any corrupt segment.
  for (const std::optional<std::set<std::string>>& columns :
       {std::optional<std::set<std::string>>(std::set<std::string>{"site"}),
        std::optional<std::set<std::string>>()}) {
    sql::ScanPredicate predicate;
    predicate.columns = columns;
    out.clear();
    ASSERT_TRUE((*catalog)->Scan("t", schema, predicate, &out, nullptr).ok());
    EXPECT_TRUE(out.empty());
  }
  // Recovery verifies whole files and discards it.
  catalog->reset();
  auto reopened = SegmentCatalog::Open(dir.path(), options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->segment_count(), 0u);
  EXPECT_EQ((*reopened)->discarded_on_recovery(), 1u);
}

TEST(SegmentCatalogTest, VersionOneSegmentStillScansAndSurvivesRecovery) {
  // The fixture is a catalog with one segment of WideRows(20), written
  // by the version-1 encoder (chunk data inline in group records) with
  // rows_per_chunk = 8.
  TempDir dir("v1");
  fs::copy(std::string(GSN_TEST_FIXTURES_DIR) + "/segment_v1", dir.path(),
           fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  const std::string seg_path = dir.path() + "/t/seg-1.gsnseg";
  auto contents = storage::ReadLogFile(seg_path);
  ASSERT_TRUE(contents.ok());
  auto header = storage::columnar::ParseSegmentHeader(*contents);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, 1u);
  EXPECT_TRUE(storage::columnar::ValidateSegmentContents(*contents));

  const Schema schema = WideRowSchema();
  const Relation::RowList rows = WideRows(20);
  SegmentCatalog::Options options;
  options.rows_per_chunk = 8;
  {
    auto catalog = SegmentCatalog::Open(dir.path(), options);
    ASSERT_TRUE(catalog.ok());
    EXPECT_EQ((*catalog)->segment_count(), 1u);
    EXPECT_EQ((*catalog)->discarded_on_recovery(), 0u);
    EXPECT_EQ((*catalog)->orphans_removed(), 0u);

    Relation::RowList out;
    ASSERT_TRUE(
        (*catalog)->Scan("t", schema, sql::ScanPredicate{}, &out, nullptr).ok());
    ASSERT_EQ(out.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(*out[i], *rows[i]) << "row " << i;
    }
    // Pruning and projection work on version-1 groups too.
    sql::ScanPredicate predicate;
    predicate.bounds.push_back(Bound("timed", sql::ScanBound::Op::kGreater,
                                     Value::TimestampVal(2500)));
    predicate.columns = std::set<std::string>{"timed", "site"};
    out.clear();
    sql::ScanStats stats;
    ASSERT_TRUE((*catalog)->Scan("t", schema, predicate, &out, &stats).ok());
    EXPECT_GT(stats.chunks_pruned, 0);
    ASSERT_EQ(out.size(), 4u);  // the last group: timed 2600..2900
    for (const Relation::SharedRow& row : out) {
      const size_t i = static_cast<size_t>(
          ((*row)[0].timestamp_value() - 1000) / 100);
      EXPECT_EQ((*row)[3], (*rows[i])[3]);
      EXPECT_TRUE((*row)[1].is_null());
    }
    // New flushes are version 2 and sit next to the old file.
    ASSERT_TRUE((*catalog)->Flush("t", schema, WideRows(5, 9000)).ok());
  }
  auto catalog = SegmentCatalog::Open(dir.path(), options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->segment_count(), 2u);
  EXPECT_EQ((*catalog)->discarded_on_recovery(), 0u);
  Relation::RowList out;
  ASSERT_TRUE(
      (*catalog)->Scan("t", schema, sql::ScanPredicate{}, &out, nullptr).ok());
  EXPECT_EQ(out.size(), 25u);
}

// ----------------------------------------------------- Container seams

/// Deterministic producer (seq 0,1,2,... every 100ms); permanent
/// storage with a `storage_size`-row retention window.
std::string GenDescriptor(const std::string& name,
                          const std::string& storage_size) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<output-structure>"
         "  <field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"true\" size=\"" + storage_size +
         "\"/>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"generator\">"
         "      <predicate key=\"interval-ms\" val=\"100\"/>"
         "      <predicate key=\"payload-bytes\" val=\"0\"/>"
         "    </address>"
         "    <query>select seq from wrapper order by seq desc limit 1"
         "    </query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

container::Container::Options TieredOptions(const std::string& dir,
                                            std::shared_ptr<Clock> clock) {
  container::Container::Options options;
  options.node_id = "n";
  options.clock = std::move(clock);
  options.seed = 29;
  options.data_dir = dir;
  options.supervision.checkpoint_interval = 0;  // checkpoints by hand
  options.columnar.rows_per_chunk = 8;          // many chunks, small data
  return options;
}

void RunTicks(container::Container* container,
              const std::shared_ptr<VirtualClock>& clock, int ticks) {
  for (int i = 0; i < ticks; ++i) {
    clock->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(container->Tick().ok());
  }
}

/// The differential oracle: every query must return byte-identical CSV
/// regardless of which tier(s) the rows live in.
void ExpectSameAnswers(container::Container* tiered,
                       container::Container* reference,
                       const std::vector<std::string>& queries) {
  for (const std::string& q : queries) {
    auto a = tiered->Query(q);
    auto b = reference->Query(q);
    ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(RelationToCsv(*a), RelationToCsv(*b)) << q;
  }
}

void ExpectSameAnswers(container::Container* tiered,
                       container::Container* reference,
                       const std::string& table) {
  // Rows are stamped every 100 ms, so each time bound below lands
  // exactly on a row: the boundary row must be kept or dropped as WHERE
  // would, whichever tier holds it.
  ExpectSameAnswers(
      tiered, reference,
      {"select * from " + table + " order by timed",
       "select count(*), min(seq), max(seq) from " + table,
       "select seq from " + table + " where seq >= 10 and seq < 20 "
           "order by seq",
       "select count(*) from " + table + " where timed > 1500000",
       "select sum(seq) from " + table + " where seq between 5 and 25",
       "select count(*), min(seq) from " + table + " where timed >= 1500000",
       "select seq from " + table + " where timed = 2000000",
       "select count(*), max(seq) from " + table + " where timed <= 2000000",
       "select count(*), max(seq) from " + table + " where timed < 2000000",
       "select count(*) from " + table +
           " where timed >= 1000000 and timed < 4500000",
       "select count(*) from " + table + " where 2500000 > timed",
       "select seq from " + table +
           " where timed between 1200000 and 1500000 order by seq"});
}

TEST(TieredHistoryTest, QueriesAreIdenticalAcrossTierPlacements) {
  TempDir tiered_dir("diff_tiered");
  TempDir reference_dir("diff_reference");
  auto clock = std::make_shared<VirtualClock>();

  // Tiered: 5-row live window, history in segments after checkpoints.
  // Reference: 10m-row window — everything stays in memory.
  container::Container tiered(TieredOptions(tiered_dir.path(), clock));
  container::Container reference(TieredOptions(reference_dir.path(), clock));
  ASSERT_TRUE(tiered.Deploy(GenDescriptor("s", "5")).ok());
  ASSERT_TRUE(reference.Deploy(GenDescriptor("s", "10m")).ok());

  // Phase 1: rows split memory/pending (no checkpoint yet).
  for (int i = 0; i < 30; ++i) {
    clock->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(tiered.Tick().ok());
    ASSERT_TRUE(reference.Tick().ok());
  }
  ExpectSameAnswers(&tiered, &reference, "s");

  // Phase 2: checkpoint moves the pending rows into segments.
  ASSERT_TRUE(tiered.Checkpoint().ok());
  ASSERT_NE(tiered.segment_catalog(), nullptr);
  EXPECT_GT(tiered.segment_catalog()->segment_count(), 0u);
  ExpectSameAnswers(&tiered, &reference, "s");

  // Phase 3: more rows after the flush — all three placements at once
  // (segments + pending + live window).
  for (int i = 0; i < 20; ++i) {
    clock->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(tiered.Tick().ok());
    ASSERT_TRUE(reference.Tick().ok());
  }
  ExpectSameAnswers(&tiered, &reference, "s");

  // Phase 4: second checkpoint, then a restart of the tiered node —
  // recovery must reassemble the exact same relation.
  ASSERT_TRUE(tiered.Checkpoint().ok());
  ExpectSameAnswers(&tiered, &reference, "s");
}

/// Like GenDescriptor, with the generator's value and payload fields
/// too, so most queries leave some columns unread.
std::string WideGenDescriptor(const std::string& name,
                              const std::string& storage_size) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<output-structure>"
         "  <field name=\"seq\" type=\"integer\"/>"
         "  <field name=\"value\" type=\"double\"/>"
         "  <field name=\"payload\" type=\"binary\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"true\" size=\"" + storage_size +
         "\"/>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"generator\">"
         "      <predicate key=\"interval-ms\" val=\"100\"/>"
         "      <predicate key=\"payload-bytes\" val=\"24\"/>"
         "      <predicate key=\"value-period\" val=\"7\"/>"
         "    </address>"
         "    <query>select seq, value, payload from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

TEST(TieredHistoryTest, ProjectionKeepsAnswersAcrossTierPlacements) {
  TempDir tiered_dir("proj_tiered");
  TempDir reference_dir("proj_reference");
  auto clock = std::make_shared<VirtualClock>();
  container::Container tiered(TieredOptions(tiered_dir.path(), clock));
  container::Container reference(TieredOptions(reference_dir.path(), clock));
  ASSERT_TRUE(tiered.Deploy(WideGenDescriptor("w", "5")).ok());
  ASSERT_TRUE(reference.Deploy(WideGenDescriptor("w", "10m")).ok());

  const std::vector<std::string> queries = {
      // `*` reads every column.
      "select * from w order by timed",
      "select a.* from w a where a.seq < 4 order by a.seq",
      // `value` only in WHERE.
      "select seq from w where value > 0.4 order by seq",
      // `value` only in ORDER BY; `seq` only in GROUP BY.
      "select seq from w order by value, seq",
      "select min(timed), count(*) from w group by seq % 3 order by 1",
      // The outer `value` is read only by a correlated subquery.
      "select count(*) from w a where exists (select 1 from w b where "
          "b.seq = a.seq + 1 and b.value > a.value)",
      "select seq from w a where a.seq < (select count(*) from w b where "
          "b.value < a.value) order by seq",
      // count(*) alone needs no column.
      "select count(*) from w",
      "select count(*) from w where timed > 2000000",
      // A join reads each side's columns.
      "select count(*) from w a join w b on a.seq = b.seq where "
          "a.value = b.value",
  };
  for (int i = 0; i < 30; ++i) {
    clock->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(tiered.Tick().ok());
    ASSERT_TRUE(reference.Tick().ok());
  }
  ExpectSameAnswers(&tiered, &reference, queries);
  ASSERT_TRUE(tiered.Checkpoint().ok());
  ASSERT_GT(tiered.segment_catalog()->segment_count(), 0u);
  for (int i = 0; i < 20; ++i) {
    clock->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(tiered.Tick().ok());
    ASSERT_TRUE(reference.Tick().ok());
  }
  // Segments + pending + live window at once.
  ExpectSameAnswers(&tiered, &reference, queries);

}

TEST(TieredHistoryTest, ExplainAnalyzeAndMetricsShowPruning) {
  TempDir dir("explain");
  auto clock = std::make_shared<VirtualClock>();
  container::Container container(TieredOptions(dir.path(), clock));
  ASSERT_TRUE(container.Deploy(GenDescriptor("s", "5")).ok());
  RunTicks(&container, clock, 60);
  ASSERT_TRUE(container.Checkpoint().ok());

  // The unselective scan decodes every segment row.
  auto all = container.Query("select count(*) from s");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows()[0][0].int_value(), 59);
  auto scanned = container.metrics()->GetCounter(
      "gsn_segment_scanned_rows", {{"node", "n"}},
      "Rows decoded out of columnar segments");
  EXPECT_GT(scanned->Value(), 0);

  // A selective time range skips storage: the generator started at
  // virtual time 0 stepping 100ms, so timed > 5.5s lands past every
  // flushed segment's [min,max] and prunes all of its chunks unopened.
  auto analyzed = container.query_manager().ExplainAnalyze(
      "select count(*) from s where timed > 5500000");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->find("segments="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("chunks_pruned="), std::string::npos) << *analyzed;

  auto pruned = container.metrics()->GetCounter(
      "gsn_segment_pruned_chunks", {{"node", "n"}},
      "Column chunks skipped via zone maps");
  EXPECT_GT(pruned->Value(), 0) << *analyzed;

  // A mid-history range opens the segment but prunes the groups before
  // and after it via chunk zone maps.
  const int64_t pruned_before = pruned->Value();
  auto mid = container.Query(
      "select count(*) from s where timed > 2000000 and timed <= 3000000");
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->rows()[0][0].int_value(), 10);
  EXPECT_GT(pruned->Value(), pruned_before);
}

TEST(TieredHistoryTest, SurfacesReportSegments) {
  TempDir dir("surfaces");
  auto clock = std::make_shared<VirtualClock>();
  container::Container container(TieredOptions(dir.path(), clock));
  ASSERT_TRUE(container.Deploy(GenDescriptor("s", "5")).ok());
  RunTicks(&container, clock, 30);
  ASSERT_TRUE(container.Checkpoint().ok());

  container::ManagementInterface mgmt(&container);
  const std::string listing = mgmt.Execute("segments");
  EXPECT_NE(listing.find("s/seg-"), std::string::npos) << listing;
  EXPECT_NE(mgmt.Execute("help").find("segments"), std::string::npos);

  container::WebInterface web(&container);
  network::HttpRequest request;
  request.method = "GET";
  request.path = "/api/v1/segments";
  const network::HttpResponse response = web.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(response.body.find("\"table\":\"s\""), std::string::npos)
      << response.body;

  // Telemetry gauges track the catalog.
  auto count = container.metrics()->GetGauge(
      "gsn_segment_count", {{"node", "n"}}, "Live columnar segments");
  EXPECT_GT(count->Value(), 0);
  auto bytes = container.metrics()->GetGauge(
      "gsn_segment_bytes", {{"node", "n"}}, "Bytes across columnar segments");
  EXPECT_GT(bytes->Value(), 0);
}

TEST(TieredHistoryTest, OrphanSegmentFromKilledFlushIsRemovedWithoutLoss) {
  // Crash case A: kill -9 between segment-file write and journal
  // append. The orphan file must be deleted at recovery and every row
  // still served exactly once (they never left the WAL).
  TempDir dir("orphan");
  auto clock = std::make_shared<VirtualClock>();
  {
    container::Container container(TieredOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("s", "5")).ok());
    RunTicks(&container, clock, 25);
    // No checkpoint: the WAL holds all 24 rows. Fake the partial flush.
    fs::create_directories(dir.path() + "/segments/s");
    std::ofstream out(dir.path() + "/segments/s/seg-7.gsnseg",
                      std::ios::binary);
    out << "partial segment torn by kill -9";
  }
  container::Container container(TieredOptions(dir.path(), clock));
  ASSERT_NE(container.segment_catalog(), nullptr);
  EXPECT_EQ(container.segment_catalog()->orphans_removed(), 1u);
  EXPECT_EQ(container.segment_catalog()->segment_count(), 0u);
  auto result = container.Query("select count(*), min(seq), max(seq) from s");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows()[0][0].int_value(), 24);
  EXPECT_EQ(result->rows()[0][1].int_value(), 0);
  EXPECT_EQ(result->rows()[0][2].int_value(), 23);
}

TEST(TieredHistoryTest, CrashBeforeWalRewriteDeduplicatesTheSeam) {
  // Crash case B: the segment flush committed (file + journal fsynced)
  // but the crash hit before the WAL rewrite, so the WAL still holds
  // the flushed rows. Recovery must serve each row exactly once.
  TempDir dir("dedup");
  auto clock = std::make_shared<VirtualClock>();
  const std::string wal = dir.path() + "/s.gsnlog";
  const std::string wal_backup = dir.path() + "/s.gsnlog.pre-checkpoint";
  {
    container::Container container(TieredOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("s", "5")).ok());
    RunTicks(&container, clock, 30);
    // Preserve the pre-rewrite WAL, then checkpoint (flush + rewrite).
    fs::copy_file(wal, wal_backup);
    ASSERT_TRUE(container.Checkpoint().ok());
    ASSERT_GT(container.segment_catalog()->segment_count(), 0u);
  }
  // "Undo" the rewrite: the on-disk state is now exactly a crash after
  // the journal fsync and before PersistenceLog::Rewrite.
  fs::remove(wal);
  fs::rename(wal_backup, wal);

  container::Container container(TieredOptions(dir.path(), clock));
  auto result = container.Query("select count(*), min(seq), max(seq) from s");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows()[0][0].int_value(), 29) << "seam rows duplicated";
  EXPECT_EQ(result->rows()[0][1].int_value(), 0);
  EXPECT_EQ(result->rows()[0][2].int_value(), 28);
  // And no row was dropped by the dedup either: distinct seqs == count.
  auto distinct = container.Query("select count(distinct seq) from s");
  if (distinct.ok()) {
    EXPECT_EQ(distinct->rows()[0][0].int_value(), 29);
  }
}

TEST(TieredHistoryTest, UndeployDropsSegmentsButRestartKeepsThem) {
  TempDir dir("undeploy");
  auto clock = std::make_shared<VirtualClock>();
  {
    container::Container container(TieredOptions(dir.path(), clock));
    ASSERT_TRUE(container.Deploy(GenDescriptor("keep", "5")).ok());
    ASSERT_TRUE(container.Deploy(GenDescriptor("gone", "5")).ok());
    RunTicks(&container, clock, 30);
    ASSERT_TRUE(container.Checkpoint().ok());
    EXPECT_EQ(container.segment_catalog()->SegmentsFor("keep").size(), 1u);
    ASSERT_TRUE(container.Undeploy("gone").ok());
    EXPECT_TRUE(container.segment_catalog()->SegmentsFor("gone").empty());
    // Process-exit teardown (destructor) must NOT drop "keep"'s history.
  }
  container::Container container(TieredOptions(dir.path(), clock));
  EXPECT_EQ(container.segment_catalog()->SegmentsFor("keep").size(), 1u);
  EXPECT_TRUE(container.segment_catalog()->SegmentsFor("gone").empty());
  auto count = container.Query("select count(*) from keep");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows()[0][0].int_value(), 29);
}

}  // namespace
}  // namespace gsn
