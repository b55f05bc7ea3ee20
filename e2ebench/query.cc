// `query`: two sensors hold identical 30-minute streams of 32 KB
// elements at 1/s (paper Fig 4). `hot` keeps all of it in its
// in-memory window; `cold` keeps one minute and the older rows go to
// columnar segments. One closed-loop client issues random Fig-4
// queries (count/avg/max under a time, a value and a stride predicate)
// in two classes: `window` over hot with 1 s .. 30 min of history, and
// `segment` over cold reaching past its window. Ingest happens only in
// set-up, so the load is sql and the storage scans.

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "gsn/container/container.h"
#include "gsn/util/rng.h"

namespace e2e {
namespace {

constexpr gsn::Timestamp kSecond = gsn::kMicrosPerSecond;
constexpr int64_t kColdWindow = 60;  // rows cold keeps in memory
/// Window queries per segment query in one round of the closed loop.
/// This is no model of traffic: it only sets how many samples each
/// class gets in a run (~2800 window queries for a p95, ~115 segment
/// queries for a p90), and every end-to-end metric is taken per class.
constexpr int kWindowPerRound = 24;
/// Each class draws its history from this many equal strata in turn
/// (uniform within a stratum), so a run's few hundred queries cover the
/// whole 1 s .. 30 min range evenly whatever the seed.
constexpr int kStrata = 8;

struct Shape {
  int64_t elements;  // history length, one element per second
  int setups;
  int cross_checks;  // hot-vs-cold comparisons after the measured phase
};

Shape ShapeFor(const Args& args) {
  if (args.small) return Shape{300, 1, 4};
  return Shape{1800, 3, 8};
}

std::string SensorXml(const std::string& name, int64_t period,
                      bool permanent) {
  const std::string storage =
      permanent ? "<storage permanent-storage=\"true\" size=\"" +
                      std::to_string(kColdWindow) + "\"/>"
                : "<storage size=\"100000\"/>";
  return "<virtual-sensor name=\"" + name +
         "\"><output-structure>"
         "<field name=\"seq\" type=\"integer\"/>"
         "<field name=\"value\" type=\"double\"/>"
         "<field name=\"payload\" type=\"binary\"/>"
         "</output-structure>" +
         storage +
         "<input-stream name=\"in\">"
         "<stream-source alias=\"src\" storage-size=\"1\">"
         "<address wrapper=\"generator\">"
         "<predicate key=\"interval-ms\" val=\"1000\"/>"
         "<predicate key=\"payload-bytes\" val=\"32768\"/>"
         "<predicate key=\"value-period\" val=\"" +
         std::to_string(period) +
         "\"/>"
         "</address>"
         "<query>select seq, value, payload from wrapper</query>"
         "</stream-source>"
         "<query>select * from src</query>"
         "</input-stream></virtual-sensor>";
}

struct Node {
  std::shared_ptr<gsn::VirtualClock> clock;
  std::unique_ptr<gsn::container::Container> container;
  std::string data_dir;
  int64_t period = 0;
  gsn::Timestamp anchor = 0;  // first tick; seq k is stamped anchor+(k+1)s
  gsn::Timestamp now = 0;     // last tick
};

/// Deploys hot and cold and fills both with the same history.
bool SetUp(const Args& args, const Shape& shape, int attempt, Node* node,
           std::string* error) {
  gsn::Rng rng(args.seed * 104729 + 5);
  node->period = 50 + static_cast<int64_t>(rng.NextUint64() % 100);
  node->clock = std::make_shared<gsn::VirtualClock>(kSecond);
  node->data_dir = FreshDir(args, "query-" + std::to_string(attempt));
  gsn::container::Container::Options options;
  options.node_id = "query";
  options.clock = node->clock;
  options.seed = args.seed;
  options.data_dir = node->data_dir;
  options.sharding.shards = 1;
  options.sharding.tick_workers = 1;
  node->container =
      std::make_unique<gsn::container::Container>(std::move(options));
  for (const bool permanent : {false, true}) {
    auto deployed = node->container->Deploy(
        SensorXml(permanent ? "cold" : "hot", node->period, permanent));
    if (!deployed.ok()) {
      *error = deployed.status().ToString();
      return false;
    }
  }
  node->anchor = node->clock->NowMicros();
  for (int64_t i = 0; i <= shape.elements; ++i) {
    if (i > 0) node->clock->Advance(kSecond);
    auto produced = node->container->Tick();
    if (!produced.ok() || *produced != (i > 0 ? 2 : 0)) {
      *error = "fill tick " + std::to_string(i) + " failed";
      return false;
    }
  }
  node->now = node->clock->NowMicros();
  // Flush whatever cold evicted since the last periodic checkpoint.
  const gsn::Status flushed = node->container->Checkpoint();
  if (!flushed.ok()) {
    *error = flushed.ToString();
    return false;
  }
  return true;
}

/// One random Fig-4 query: a time, a value and a stride predicate.
struct Query {
  gsn::Timestamp since = 0;  // timed > since
  std::string threshold;     // value > threshold, as printed
  int64_t stride = 0;        // seq % stride = 0

  std::string Sql(const std::string& table) const {
    return "select count(*), avg(value), max(seq) from " + table +
           " where timed > " + std::to_string(since) + " and value > " +
           threshold + " and seq % " + std::to_string(stride) + " = 0";
  }
};

Query RandomQuery(const Node& node, bool segment, int64_t n, gsn::Rng* rng) {
  // Segment queries reach at least one minute past cold's window.
  const gsn::Timestamp min_history =
      segment ? (kColdWindow + 60) * kSecond : kSecond;
  const gsn::Timestamp width =
      (node.now - node.anchor - min_history) / kStrata;
  const gsn::Timestamp stratum = min_history + (n % kStrata) * width;
  Query q;
  q.since = node.now - rng->NextInt(stratum, stratum + width);
  q.threshold = std::to_string(rng->NextDouble(-1.0, 1.0));
  q.stride = rng->NextInt(2, 10);
  return q;
}

/// The benchmark's own answer over the known stream.
struct Expected {
  int64_t count = 0;
  double sum = 0;
  int64_t max_seq = -1;
};

Expected Compute(const Node& node, const std::vector<double>& values,
                 const Query& q) {
  const double threshold = std::strtod(q.threshold.c_str(), nullptr);
  Expected e;
  for (int64_t k = 0; k < static_cast<int64_t>(values.size()); ++k) {
    const gsn::Timestamp timed = node.anchor + (k + 1) * kSecond;
    const double value = values[static_cast<size_t>(k)];
    if (timed > q.since && value > threshold && k % q.stride == 0) {
      ++e.count;
      e.sum += value;
      e.max_seq = k;
    }
  }
  return e;
}

bool Matches(const gsn::Relation& rel, const Expected& e) {
  if (rel.rows().size() != 1) return false;
  const auto& row = rel.rows()[0];
  if (row[0].int_value() != e.count) return false;
  if (e.count == 0) return row[1].is_null() && row[2].is_null();
  const double avg = e.sum / static_cast<double>(e.count);
  return std::fabs(row[1].double_value() - avg) <= 1e-9 &&
         row[2].int_value() == e.max_seq;
}

}  // namespace

int RunQuery(const Args& args, Result* result) {
  const Shape shape = ShapeFor(args);
  Tracer tracer;
  Node node;
  std::vector<double> setup_s;
  for (int attempt = 0; attempt < shape.setups; ++attempt) {
    if (attempt > 0) {
      node.container.reset();
      RemoveDir(node.data_dir);
    }
    node = Node();
    std::string error;
    const int64_t start = NowNs();
    if (!SetUp(args, shape, attempt, &node, &error)) {
      std::fprintf(stderr, "query set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  result->notes.push_back("durable state on " + FilesystemKind(node.data_dir) +
                          " (" + node.data_dir + ")");

  gsn::Rng rng(args.seed);
  std::vector<double> values;
  for (int64_t k = 0; k < shape.elements; ++k) {
    values.push_back(GeneratorValue(k, node.period));
  }
  int64_t drawn[2] = {0, 0};  // queries drawn per class
  int64_t mismatches = 0;
  std::string mismatch_detail;
  int64_t request = 0;

  struct Phase {
    std::vector<double> window_ms;
    std::vector<double> segment_ms;
    int64_t queries = 0;
    int64_t failed = 0;
    double total_ms = 0;
    /// Rows the segment queries matched, and each traced query (and
    /// whether it was a segment query) for the storage probes.
    double segment_matched = 0;
    std::vector<std::pair<Query, bool>> traced;
  };
  // Whole rounds of kWindowPerRound window queries and one segment
  // query until `seconds` have passed.
  auto measure = [&](double seconds) {
    Phase phase;
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      for (int i = 0; i <= kWindowPerRound; ++i) {
        const bool segment = i == kWindowPerRound;
        const Query q = RandomQuery(node, segment, drawn[segment]++, &rng);
        const std::string sql = q.Sql(segment ? "cold" : "hot");
        const std::string cls = segment ? "segment" : "window";
        const int64_t q_start = NowNs();
        const int64_t span =
            tracer.Begin("container.query." + cls, -1, request++);
        auto rel = node.container->Query(sql);
        tracer.End(span);
        const double ms = MsSince(q_start);
        (segment ? phase.segment_ms : phase.window_ms).push_back(ms);
        phase.total_ms += ms;
        ++phase.queries;
        const Expected expected = Compute(node, values, q);
        if (!rel.ok()) {
          ++phase.failed;
        } else if (!Matches(*rel, expected)) {
          if (mismatches++ == 0) mismatch_detail = sql + " -> " + rel->ToString();
        }
        if (segment) phase.segment_matched += static_cast<double>(expected.count);
        if (tracer.enabled()) phase.traced.emplace_back(q, segment);
      }
    }
    return phase;
  };

  Phase untraced;
  if (args.trace) untraced = measure(args.seconds / 2);
  tracer.set_enabled(args.trace);
  const Scrape before = TakeScrape(*node.container->metrics());
  const Phase phase = measure(args.trace ? args.seconds / 2 : args.seconds);
  const Scrape after = TakeScrape(*node.container->metrics());

  // The storage tier alone, on each traced query's time bound. Run
  // after the closing scrape: these scans bump the same segment
  // counters as the queries, which must count only the queries' scans.
  std::vector<double> scan_window_ms;
  std::vector<double> scan_segment_ms;
  auto* cold_table = *node.container->table_manager().GetTableHandle("cold");
  auto* hot_table = *node.container->table_manager().GetTableHandle("hot");
  for (const auto& [q, segment] : phase.traced) {
    gsn::sql::ScanPredicate predicate;
    predicate.bounds.push_back(gsn::sql::ScanBound{
        "timed", gsn::sql::ScanBound::Op::kGreater, gsn::Value::Int(q.since)});
    const int64_t scan_start = NowNs();
    const int64_t scan_span = tracer.Begin(
        segment ? "storage.scan.segment" : "storage.scan.window", -1,
        request++);
    const gsn::Relation rows =
        (segment ? cold_table : hot_table)
            ->ScanUnified(node.container->segment_catalog(), predicate,
                          nullptr);
    tracer.End(scan_span);
    (segment ? scan_segment_ms : scan_window_ms).push_back(MsSince(scan_start));
  }
  tracer.set_enabled(false);

  result->attempted = untraced.queries + phase.queries;
  result->failed = untraced.failed + phase.failed;
  result->AddCheck("query.results_match_stream", mismatches == 0,
                   mismatches == 0
                       ? std::to_string(result->attempted - result->failed) +
                             " results equal the benchmark's own computation"
                       : std::to_string(mismatches) + " mismatches, first: " +
                             mismatch_detail);

  // The same query over hot and cold returns the same row.
  bool same = true;
  std::string detail = std::to_string(shape.cross_checks) + " queries";
  for (int i = 0; i < shape.cross_checks && same; ++i) {
    const Query q = RandomQuery(node, true, i, &rng);
    auto hot = node.container->Query(q.Sql("hot"));
    auto cold = node.container->Query(q.Sql("cold"));
    same = hot.ok() && cold.ok() && hot->ToString() == cold->ToString();
    if (!same) detail = q.Sql("hot/cold") + " differs";
  }
  result->AddCheck("query.hot_equals_cold", same, detail);

  // The Fig-4 window class alone: window queries answered per second
  // of time spent answering them. The round's mix of the two classes
  // only decides how many samples each class gets in a run; no
  // end-to-end metric depends on it.
  double window_total_ms = 0;
  for (const double ms : phase.window_ms) window_total_ms += ms;
  result->Set("throughput_per_s",
              static_cast<double>(phase.window_ms.size()) /
                  (window_total_ms / 1000.0),
              "1/s");
  result->Set("primary_p50_ms", Median(phase.window_ms), "ms");
  result->Set("primary_tail_ms", Percentile(phase.window_ms, 0.95), "ms");
  result->Set("secondary_p50_ms", Median(phase.segment_ms), "ms");
  result->Set("secondary_tail_ms", Percentile(phase.segment_ms, 0.9), "ms");
  result->Set("setup_s", Median(setup_s), "s");
  result->Set("rss_peak_mb", RssPeakMb(), "MB");
  result->notes.push_back(
      "window queries " + std::to_string(phase.window_ms.size()) +
      ", segment queries " + std::to_string(phase.segment_ms.size()) +
      ", history " + std::to_string(shape.elements) + " s");

  if (args.trace) {
    ProgramLayers(before, after, 0, result);
    result->Set("storage.scan_ms.window", Mean(scan_window_ms), "ms");
    result->Set("storage.scan_ms.segment", Mean(scan_segment_ms), "ms");
    // The segment rows the queries themselves decoded (only segment
    // queries reach cold's segments; hot has none).
    const double decoded_rows =
        Delta(before, after, "gsn_segment_scanned_rows");
    result->Set("storage.matched_per_decoded",
                decoded_rows > 0 ? phase.segment_matched / decoded_rows : 0,
                "ratio");
    const double blocking_ms =
        (Delta(before, after, "gsn_query_parse_micros_sum") +
         Delta(before, after, "gsn_query_exec_micros_sum")) /
        1000.0;
    ReportTrace(args, tracer.Take(), phase.total_ms, blocking_ms,
                Median(untraced.window_ms), Median(phase.window_ms), result);
  }
  node.container.reset();
  RemoveDir(node.data_dir);
  return 0;
}

}  // namespace e2e
