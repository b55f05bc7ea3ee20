// Shared machinery of the end-to-end benchmark runner: wall timing,
// percentiles, in-memory spans, /metrics scrapes and the result record
// each workload fills in.

#ifndef GSN_E2EBENCH_COMMON_H_
#define GSN_E2EBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gsn/telemetry/metrics.h"

namespace e2e {

/// Command-line settings shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;      // the benchmark's own test size
  std::string out_dir;     // spans, scrapes and durable state
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Nearest-rank percentile (q in [0,1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Peak resident set size of this process, in MB.
double RssPeakMb();

/// One recorded span: a call the benchmark made into a module's public
/// function. `parent` indexes the enclosing span on the same thread
/// (-1 for none); spans of one operation share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t request = 0;
};

/// In-memory span store. Disabled (every call a no-op) unless tracing
/// was asked for; written out once, when the benchmark ends.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }
  /// Opens a span and returns its handle (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent, int64_t request);
  void End(int64_t handle);
  /// Records an already-timed span (cross-thread events such as a
  /// frame's hop from sender to receiver).
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns,
           int64_t parent, int64_t request);
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per span name: call count, total and self time (total minus the part
/// covered by child spans), in ms.
struct SpanSummary {
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans);

/// One Prometheus text scrape of a registry — the same exposition an
/// operator reads from GET /api/v1/metrics — keyed by the series line
/// ("name{labels}").
using Scrape = std::map<std::string, double>;
Scrape TakeScrape(const gsn::telemetry::MetricRegistry& registry);
/// Sum of every series of `name` whose label text contains `labels`.
double SeriesSum(const Scrape& scrape, const std::string& name,
                 const std::string& labels = "");
/// SeriesSum(after) - SeriesSum(before).
double Delta(const Scrape& before, const Scrape& after,
             const std::string& name, const std::string& labels = "");
/// Mean of a histogram over the interval between two scrapes
/// (delta of _sum over delta of _count); 0 when nothing was observed.
double HistMean(const Scrape& before, const Scrape& after,
                const std::string& name, const std::string& labels = "");

/// What one workload run reports.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Independent correctness checks: name -> passed, with a detail line.
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void AddCheck(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
  bool correct() const;
};

/// The per-layer metrics read from the program's own /metrics
/// instruments between two scrapes of the measured phase; a layer the
/// workload does not exercise reads 0. `ticks` normalizes per-tick
/// waits.
void ProgramLayers(const Scrape& before, const Scrape& after, int64_t ticks,
                   Result* result);

/// Writes the spans as JSON lines; returns the path.
std::string WriteSpans(const Args& args, const std::vector<Span>& spans);

/// Fills the traced run's shared per-layer outputs: per-span self time
/// lines (notes), the residual share of the end-to-end time not covered
/// by the blocking layers, and the tracing overhead from the median
/// operation time of the untraced and traced halves of the same run.
void ReportTrace(const Args& args, const std::vector<Span>& spans,
                 double e2e_total_ms, double blocking_total_ms,
                 double untraced_p50_ms, double traced_p50_ms,
                 Result* result);

/// The value of the generator wrapper's sine wave at `seq` for period
/// `period`, computed as documented in generator_wrapper.h.
double GeneratorValue(int64_t seq, int64_t period);

/// A fresh, empty directory under the run's output directory.
std::string FreshDir(const Args& args, const std::string& name);
void RemoveDir(const std::string& path);
/// "memory" when `path` lies on a memory-backed filesystem, else "disk".
std::string FilesystemKind(const std::string& path);

int RunIngest(const Args& args, Result* result);
int RunQuery(const Args& args, Result* result);
int RunFederation(const Args& args, Result* result);

}  // namespace e2e

#endif  // GSN_E2EBENCH_COMMON_H_
