#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "gsn/storage/persistence_log.h"
#include "gsn/storage/table.h"
#include "gsn/storage/window_buffer.h"
#include "gsn/types/codec.h"

namespace gsn::storage {
namespace {

StreamElement Elem(Timestamp t, int v) {
  StreamElement e;
  e.timed = t;
  e.values = {Value::Int(v)};
  return e;
}

// ------------------------------------------------------------ WindowBuffer

TEST(WindowBufferTest, CountWindowKeepsLastN) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kCount;
  spec.count = 3;
  WindowBuffer buf(spec);
  for (int i = 1; i <= 5; ++i) buf.Add(Elem(i * 100, i));
  auto snap = buf.Snapshot(0);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].values[0], Value::Int(3));
  EXPECT_EQ(snap[2].values[0], Value::Int(5));
}

TEST(WindowBufferTest, TimeWindowEvictsOldElements) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = 10 * kMicrosPerSecond;
  WindowBuffer buf(spec);
  buf.Add(Elem(1 * kMicrosPerSecond, 1));
  buf.Add(Elem(5 * kMicrosPerSecond, 2));
  buf.Add(Elem(12 * kMicrosPerSecond, 3));
  // At t=12s, the 10s window covers (2s, 12s]: elements at 5s and 12s.
  auto snap = buf.Snapshot(12 * kMicrosPerSecond);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].values[0], Value::Int(2));
}

TEST(WindowBufferTest, TimeWindowLazyExpiryAtSnapshot) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = kMicrosPerSecond;
  WindowBuffer buf(spec);
  buf.Add(Elem(0, 1));
  // No new arrivals; the element ages out purely by the snapshot time.
  EXPECT_EQ(buf.Snapshot(kMicrosPerSecond / 2).size(), 1u);
  EXPECT_EQ(buf.Snapshot(2 * kMicrosPerSecond).size(), 0u);
}

TEST(WindowBufferTest, BoundaryIsExclusiveAtCutoff) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = 10;
  WindowBuffer buf(spec);
  buf.Add(Elem(100, 1));
  // Window at now=110 covers (100, 110] — the element at exactly
  // now - duration is expired.
  EXPECT_EQ(buf.Snapshot(110).size(), 0u);
  EXPECT_EQ(buf.Snapshot(109).size(), 1u);
}

TEST(WindowBufferTest, OutOfOrderAddInsertsInTimestampOrder) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = 10 * kMicrosPerSecond;
  WindowBuffer buf(spec);
  buf.Add(Elem(11 * kMicrosPerSecond, 1));
  buf.Add(Elem(20 * kMicrosPerSecond, 2));
  // A late arrival is binary-search inserted into its timestamp slot,
  // so the buffer stays sorted: [11s, 12s, 20s].
  buf.Add(Elem(12 * kMicrosPerSecond, 3));
  ASSERT_EQ(buf.size(), 3u);

  // At t=22s the window covers (12s, 22s]: only the 20s element is
  // live. Before ordered insert this layout was adversarial (an expired
  // entry sat after a live one); now the binary-search cut is always
  // valid.
  auto snap = buf.Snapshot(22 * kMicrosPerSecond);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].values[0], Value::Int(2));
  auto rows = buf.SnapshotRows(22 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ((*rows[0])[1], Value::Int(2));

  // A much newer arrival expires everything older on admission.
  buf.Add(Elem(40 * kMicrosPerSecond, 4));
  ASSERT_EQ(buf.size(), 1u);
  buf.Add(Elem(41 * kMicrosPerSecond, 5));
  rows = buf.SnapshotRows(41 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ((*rows[0])[1], Value::Int(4));
  EXPECT_EQ((*rows[1])[1], Value::Int(5));
}

TEST(WindowBufferTest, OutOfOrderAddKeepsSnapshotsSortedAndStable) {
  // Regression for the ordered-insert Add: heavy out-of-order arrival
  // must leave every snapshot non-decreasing in timed, with equal
  // timestamps preserving arrival order (stable insert).
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kTime;
  spec.duration_micros = 1000 * kMicrosPerSecond;
  WindowBuffer buf(spec);
  const std::vector<Timestamp> arrivals = {50, 10, 40, 10, 30, 20, 40,
                                           10, 35, 5,  45, 20, 50};
  for (size_t i = 0; i < arrivals.size(); ++i) {
    buf.Add(Elem(arrivals[i] * kMicrosPerSecond, static_cast<int>(i)));
  }
  auto rows = buf.SnapshotRows(60 * kMicrosPerSecond);
  ASSERT_EQ(rows.size(), arrivals.size());
  for (size_t i = 1; i < rows.size(); ++i) {
    const Timestamp prev = (*rows[i - 1])[0].timestamp_value();
    const Timestamp cur = (*rows[i])[0].timestamp_value();
    EXPECT_LE(prev, cur) << "snapshot out of order at " << i;
    if (prev == cur) {
      // Ties keep arrival order: the payload (arrival index) ascends.
      EXPECT_LT((*rows[i - 1])[1].int_value(), (*rows[i])[1].int_value());
    }
  }
}

TEST(WindowBufferTest, ClearEmpties) {
  WindowSpec spec;
  spec.kind = WindowSpec::Kind::kCount;
  spec.count = 10;
  WindowBuffer buf(spec);
  buf.Add(Elem(1, 1));
  EXPECT_EQ(buf.size(), 1u);
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
}

// ------------------------------------------------------------------ Table

WindowSpec Count(int64_t n) {
  WindowSpec s;
  s.kind = WindowSpec::Kind::kCount;
  s.count = n;
  return s;
}

WindowSpec Time(Timestamp d) {
  WindowSpec s;
  s.kind = WindowSpec::Kind::kTime;
  s.duration_micros = d;
  return s;
}

Schema OneIntSchema() {
  Schema s;
  s.AddField("v", DataType::kInt);
  return s;
}

TEST(TableTest, InsertAndScanAddsTimedColumn) {
  Table t("s1", OneIntSchema(), Count(10));
  ASSERT_TRUE(t.Insert(Elem(123, 7)).ok());
  Relation rel = t.Scan();
  ASSERT_EQ(rel.NumRows(), 1u);
  EXPECT_EQ(rel.schema().field(0).name, "timed");
  EXPECT_EQ(rel.rows()[0][0].timestamp_value(), 123);
  EXPECT_EQ(rel.rows()[0][1], Value::Int(7));
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("s1", OneIntSchema(), Count(10));
  StreamElement e;
  e.values = {Value::Int(1), Value::Int(2)};
  EXPECT_EQ(t.Insert(e).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, CountRetention) {
  Table t("s1", OneIntSchema(), Count(2));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.Insert(Elem(i, i)).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  Relation rel = t.Scan();
  EXPECT_EQ(rel.rows()[0][1], Value::Int(3));
}

TEST(TableTest, TimeRetention) {
  Table t("s1", OneIntSchema(), Time(10 * kMicrosPerSecond));
  ASSERT_TRUE(t.Insert(Elem(0, 1)).ok());
  ASSERT_TRUE(t.Insert(Elem(5 * kMicrosPerSecond, 2)).ok());
  ASSERT_TRUE(t.Insert(Elem(20 * kMicrosPerSecond, 3)).ok());
  EXPECT_EQ(t.NumRows(), 1u);  // inserts at 20s evicted 0s and 5s
}

TEST(TableTest, ScanWithNowAppliesTimeWindow) {
  Table t("s1", OneIntSchema(), Time(10 * kMicrosPerSecond));
  ASSERT_TRUE(t.Insert(Elem(kMicrosPerSecond, 1)).ok());
  EXPECT_EQ(t.Scan(5 * kMicrosPerSecond).NumRows(), 1u);
  EXPECT_EQ(t.Scan(30 * kMicrosPerSecond).NumRows(), 0u);
}

TEST(TableTest, ByteAccounting) {
  Table t("s1", OneIntSchema(), Count(100));
  EXPECT_EQ(t.ApproximateBytes(), 0u);
  ASSERT_TRUE(t.Insert(Elem(1, 1)).ok());
  EXPECT_GT(t.ApproximateBytes(), 0u);
  t.Clear();
  EXPECT_EQ(t.ApproximateBytes(), 0u);
}

/// The `timed` values of `rel` in order.
std::vector<Timestamp> TimedColumn(const Relation& rel) {
  std::vector<Timestamp> out;
  for (size_t i = 0; i < rel.NumRows(); ++i) {
    out.push_back(rel.row(i)[0].timestamp_value());
  }
  return out;
}

TEST(TableTest, TimedBoundTrimsSortedTiersExactlyIncludingTies) {
  // Ties at 200 and 400 straddle the pending/live seam: with a 4-row
  // window, 100 200 200 200 sit in the pending tier and 300 400 400
  // 500 in the live one.
  const std::vector<Timestamp> stamps = {100, 200, 200, 200,
                                         300, 400, 400, 500};
  Table t("s1", OneIntSchema(), Count(4));
  t.EnableHistoryCapture(100);
  for (size_t i = 0; i < stamps.size(); ++i) {
    ASSERT_TRUE(t.Insert(Elem(stamps[i], static_cast<int>(i))).ok());
  }
  ASSERT_EQ(t.PendingEvictedRows().size(), 4u);

  using Op = sql::ScanBound::Op;
  for (const Op op : {Op::kEq, Op::kLess, Op::kLessEq, Op::kGreater,
                      Op::kGreaterEq}) {
    for (const Timestamp v : {50, 100, 200, 250, 300, 400, 500, 600}) {
      // Int and timestamp literals must trim alike.
      for (const Value literal : {Value::Int(v), Value::TimestampVal(v)}) {
        sql::ScanPredicate predicate;
        predicate.bounds.push_back({"timed", op, literal});
        std::vector<Timestamp> expected;
        for (const Timestamp ts : stamps) {
          const bool keep = op == Op::kEq        ? ts == v
                            : op == Op::kLess    ? ts < v
                            : op == Op::kLessEq  ? ts <= v
                            : op == Op::kGreater ? ts > v
                                                 : ts >= v;
          if (keep) expected.push_back(ts);
        }
        sql::ScanStats stats;
        const Relation rel = t.ScanUnified(nullptr, predicate, &stats);
        EXPECT_EQ(TimedColumn(rel), expected)
            << predicate.ToString() << " literal " << literal.ToString();
        EXPECT_EQ(stats.pending_rows + stats.memory_rows,
                  static_cast<int64_t>(expected.size()));
      }
    }
  }

  // Two bounds narrow to their intersection; bounds on other columns
  // are left to WHERE.
  sql::ScanPredicate range;
  range.bounds.push_back({"timed", Op::kGreaterEq, Value::Int(200)});
  range.bounds.push_back({"timed", Op::kLess, Value::Int(400)});
  range.bounds.push_back({"v", Op::kEq, Value::Int(0)});
  EXPECT_EQ(TimedColumn(t.ScanUnified(nullptr, range, nullptr)),
            (std::vector<Timestamp>{200, 200, 200, 300}));
}

TEST(TableTest, TimedBoundFallsBackToFullCopyWhenOutOfOrder) {
  Table t("s1", OneIntSchema(), Count(10));
  for (const Timestamp ts : {100, 300, 200, 400}) {
    ASSERT_TRUE(t.Insert(Elem(ts, 0)).ok());
  }
  sql::ScanPredicate predicate;
  predicate.bounds.push_back(
      {"timed", sql::ScanBound::Op::kGreater, Value::Int(250)});
  // Unsorted: nothing is trimmed; WHERE drops the misses.
  EXPECT_EQ(TimedColumn(t.ScanUnified(nullptr, predicate, nullptr)),
            (std::vector<Timestamp>{100, 300, 200, 400}));
}

// ----------------------------------------------------------- TableManager

TEST(TableManagerTest, CreateGetDrop) {
  TableManager mgr;
  ASSERT_TRUE(mgr.CreateTable("temps", OneIntSchema(), Count(10)).ok());
  EXPECT_EQ(mgr.CreateTable("TEMPS", OneIntSchema(), Count(10)).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(mgr.GetTableHandle("Temps").ok());
  EXPECT_EQ(mgr.ListTables().size(), 1u);
  ASSERT_TRUE(mgr.DropTable("temps").ok());
  EXPECT_EQ(mgr.DropTable("temps").code(), StatusCode::kNotFound);
}

TEST(TableManagerTest, ResolvesForSqlExecutor) {
  TableManager mgr;
  auto table = mgr.CreateTable("temps", OneIntSchema(), Count(10));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(Elem(100, 42)).ok());
  ASSERT_TRUE((*table)->Insert(Elem(200, 58)).ok());

  sql::Executor exec(&mgr);
  auto rel = exec.Query("select avg(v) from temps");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_DOUBLE_EQ(rel->rows()[0][0].double_value(), 50.0);
}

// ------------------------------------------------------------------ Codec

TEST(CodecTest, ValueRoundTripAllTypes) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Int(-42),
      Value::Double(3.25),
      Value::String("hello"),
      Value::Binary(MakeBlob(std::string_view("\x00\x01\xff", 3))),
      Value::TimestampVal(123456789),
  };
  for (const Value& v : values) {
    std::string buf;
    Codec::EncodeValue(v, &buf);
    size_t pos = 0;
    auto decoded = Codec::DecodeValue(buf, &pos);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(*decoded, v) << v.ToString();
    // Type tags must survive, not just ordering equality.
    EXPECT_EQ(decoded->is_timestamp(), v.is_timestamp());
    EXPECT_EQ(decoded->is_binary(), v.is_binary());
  }
}

TEST(CodecTest, ElementRoundTrip) {
  StreamElement e;
  e.timed = 987654;
  e.values = {Value::Int(1), Value::String("x"), Value::Null()};
  auto decoded = Codec::DecodeElementFromString(Codec::EncodeElementToString(e));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->timed, e.timed);
  ASSERT_EQ(decoded->values.size(), 3u);
  EXPECT_EQ(decoded->values[1], Value::String("x"));
}

TEST(CodecTest, RelationRoundTrip) {
  Schema s;
  s.AddField("a", DataType::kInt);
  s.AddField("b", DataType::kString);
  Relation r(s);
  ASSERT_TRUE(r.AddRow({Value::Int(1), Value::String("one")}).ok());
  ASSERT_TRUE(r.AddRow({Value::Int(2), Value::Null()}).ok());
  auto decoded =
      Codec::DecodeRelationFromString(Codec::EncodeRelationToString(r));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->schema(), r.schema());
  ASSERT_EQ(decoded->NumRows(), 2u);
  EXPECT_EQ(decoded->rows()[0][1], Value::String("one"));
  EXPECT_TRUE(decoded->rows()[1][1].is_null());
}

TEST(CodecTest, TruncatedInputRejected) {
  StreamElement e;
  e.timed = 1;
  e.values = {Value::String("payload")};
  std::string buf = Codec::EncodeElementToString(e);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    EXPECT_FALSE(
        Codec::DecodeElementFromString(std::string_view(buf).substr(0, cut))
            .ok())
        << "cut at " << cut;
  }
}

TEST(CodecTest, TrailingBytesRejected) {
  StreamElement e;
  e.timed = 1;
  e.values = {};
  std::string buf = Codec::EncodeElementToString(e) + "x";
  EXPECT_FALSE(Codec::DecodeElementFromString(buf).ok());
}

// --------------------------------------------------------- PersistenceLog

class PersistenceLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("gsn_log_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(PersistenceLogTest, AppendAndRecover) {
  {
    auto log = PersistenceLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*log)->Append(Elem(i * 100, i)).ok());
    }
    EXPECT_EQ((*log)->appended_count(), 10u);
  }
  bool truncated = false;
  auto recovered = PersistenceLog::Recover(path_.string(), &truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(recovered->size(), 10u);
  EXPECT_EQ((*recovered)[7].values[0], Value::Int(7));
  EXPECT_EQ((*recovered)[7].timed, 700);
}

TEST_F(PersistenceLogTest, MissingFileIsEmptyHistory) {
  bool truncated = true;
  auto recovered = PersistenceLog::Recover(path_.string(), &truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->empty());
  EXPECT_FALSE(truncated);
}

TEST_F(PersistenceLogTest, TornTailWriteIsDroppedOnRecovery) {
  {
    auto log = PersistenceLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Elem(1, 1)).ok());
    ASSERT_TRUE((*log)->Append(Elem(2, 2)).ok());
  }
  // Simulate a crash mid-write: chop the last few bytes.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 3);

  bool truncated = false;
  auto recovered = PersistenceLog::Recover(path_.string(), &truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_EQ((*recovered)[0].values[0], Value::Int(1));
}

TEST_F(PersistenceLogTest, CorruptPayloadDetectedByCrc) {
  {
    auto log = PersistenceLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Elem(1, 1)).ok());
  }
  // Flip a byte in the middle of the file.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8, SEEK_SET);
  std::fputc(0x5A, f);
  std::fclose(f);

  bool truncated = false;
  auto recovered = PersistenceLog::Recover(path_.string(), &truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(truncated);
  EXPECT_TRUE(recovered->empty());
}

TEST_F(PersistenceLogTest, OpenTruncatesTornTailSoLaterAppendsSurvive) {
  // Regression: Open used to append blindly after a torn record, so
  // every post-crash append sat behind the corrupt bytes and every
  // future Recover stopped before them — durable writes silently lost.
  {
    auto log = PersistenceLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Elem(1, 1)).ok());
    ASSERT_TRUE((*log)->Append(Elem(2, 2)).ok());
  }
  // Crash mid-write: hand-corrupt the tail by chopping bytes.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 3);

  // Reopen (the post-crash boot) and append new history.
  {
    auto log = PersistenceLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(Elem(3, 3)).ok());
  }

  bool truncated = true;
  auto recovered = PersistenceLog::Recover(path_.string(), &truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(truncated);  // Open repaired the tail
  ASSERT_EQ(recovered->size(), 2u);
  EXPECT_EQ((*recovered)[0].values[0], Value::Int(1));
  EXPECT_EQ((*recovered)[1].values[0], Value::Int(3));  // append visible
}

TEST_F(PersistenceLogTest, RewriteCompactsToGivenElements) {
  {
    auto log = PersistenceLog::Open(path_.string());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*log)->Append(Elem(i, i)).ok());
    }
  }
  const auto before = std::filesystem::file_size(path_);
  // Checkpoint keeps only the retention window (here: the last 2).
  auto compacted =
      PersistenceLog::Rewrite(path_.string(), {Elem(98, 98), Elem(99, 99)});
  ASSERT_TRUE(compacted.ok());
  EXPECT_LT(std::filesystem::file_size(path_), before);
  // The handle returned by Rewrite stays appendable.
  ASSERT_TRUE((*compacted)->Append(Elem(100, 100)).ok());
  auto recovered = PersistenceLog::Recover(path_.string(), nullptr);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 3u);
  EXPECT_EQ((*recovered)[0].values[0], Value::Int(98));
  EXPECT_EQ((*recovered)[2].values[0], Value::Int(100));
}

TEST_F(PersistenceLogTest, ReopenAppends) {
  {
    auto log = PersistenceLog::Open(path_.string());
    ASSERT_TRUE((*log)->Append(Elem(1, 1)).ok());
  }
  {
    auto log = PersistenceLog::Open(path_.string());
    ASSERT_TRUE((*log)->Append(Elem(2, 2)).ok());
  }
  auto recovered = PersistenceLog::Recover(path_.string(), nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->size(), 2u);
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

/// The textbook one-byte-at-a-time CRC-32, the reference the sliced
/// implementation must match bit for bit.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..72 crosses the 8-byte stride and its tail; every
  // start offset 0..7 makes the wide loads unaligned.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  std::vector<uint8_t> buffer(8 + 72);
  for (int round = 0; round < 4; ++round) {
    for (uint8_t& byte : buffer) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      byte = static_cast<uint8_t>(state >> 56);
    }
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 72; ++len) {
        const uint8_t* p = buffer.data() + offset;
        ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len))
            << "round " << round << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(ReadLogFileTest, ReadsWholeFileAndMissingFileIsEmpty) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("gsn_readlog_" + std::to_string(::getpid())))
                               .string();
  std::filesystem::remove(path);
  auto missing = ReadLogFile(path);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());

  // Larger than any fixed read buffer, with bytes that are not text.
  std::string contents(300 * 1024 + 7, '\0');
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>(i * 131 + (i >> 9));
  }
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  auto read = ReadLogFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, contents);

  ASSERT_TRUE(WriteFileAtomic(path, "").ok());
  auto empty = ReadLogFile(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gsn::storage
