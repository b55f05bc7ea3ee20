#include "common.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace e2e {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(samples.size()))) - 1;
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double RssPeakMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t handle) {
  if (handle < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(handle)].end_ns = now;
}

void Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                 int64_t parent, int64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    SpanSummary& summary = out[spans[i].name];
    ++summary.count;
    summary.total_ms += ms;
    summary.self_ms += ms - child_ms[i];
  }
  return out;
}

Scrape TakeScrape(const gsn::telemetry::MetricRegistry& registry) {
  Scrape scrape;
  std::istringstream text(registry.RenderPrometheus());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    scrape[line.substr(0, space)] += std::strtod(line.c_str() + space + 1,
                                                 nullptr);
  }
  return scrape;
}

double SeriesSum(const Scrape& scrape, const std::string& name,
                 const std::string& labels) {
  double sum = 0;
  for (auto it = scrape.lower_bound(name); it != scrape.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    const bool exact = key.size() == name.size() || key[name.size()] == '{';
    if (exact && key.find(labels) != std::string::npos) sum += it->second;
  }
  return sum;
}

double Delta(const Scrape& before, const Scrape& after,
             const std::string& name, const std::string& labels) {
  return SeriesSum(after, name, labels) - SeriesSum(before, name, labels);
}

double HistMean(const Scrape& before, const Scrape& after,
                const std::string& name, const std::string& labels) {
  const double count = Delta(before, after, name + "_count", labels);
  return count > 0 ? Delta(before, after, name + "_sum", labels) / count : 0;
}

void ProgramLayers(const Scrape& before, const Scrape& after, int64_t ticks,
                   Result* result) {
  const double per_tick = ticks > 0 ? 1.0 / static_cast<double>(ticks) : 0;
  auto stage = [&](const char* name) {
    return HistMean(before, after, "gsn_pipeline_stage_micros",
                    std::string("stage=\"") + name + "\"");
  };
  auto phase = [&](const char* name) {
    return HistMean(before, after, "gsn_tick_phase_micros",
                    std::string("phase=\"") + name + "\"");
  };
  result->Set("wrappers.poll_us",
              HistMean(before, after, "gsn_wrapper_poll_micros"), "us");
  result->Set("vsensor.window_sql_us", stage("window_sql"), "us");
  result->Set("vsensor.stream_sql_us", stage("stream_sql"), "us");
  result->Set("vsensor.deliver_us", stage("deliver"), "us");
  result->Set("vsensor.batch_size",
              HistMean(before, after, "gsn_pipeline_batch_size"), "count");
  result->Set("container.dispatch_ms", phase("dispatch") / 1000.0, "ms");
  result->Set("container.storage_us", phase("storage"), "us");
  result->Set("container.fanout_us", phase("fanout"), "us");
  result->Set("container.checkpoint_ms", phase("checkpoint") / 1000.0, "ms");
  result->Set("storage.segments_written",
              Delta(before, after, "gsn_segment_count"), "count");
  result->Set("storage.segment_bytes",
              Delta(before, after, "gsn_segment_bytes"), "B");
  result->Set("container.lock_wait_us_per_tick",
              Delta(before, after, "gsn_lock_wait_micros_sum") * per_tick,
              "us");
  result->Set("container.queue_wait_us_per_tick",
              Delta(before, after, "gsn_queue_wait_micros_sum") * per_tick,
              "us");
  result->Set("container.notify_fanout_us",
              HistMean(before, after, "gsn_notification_fanout_micros"), "us");
  result->Set("container.notifications_delivered",
              Delta(before, after, "gsn_notifications_delivered_total"),
              "count");
  const double continuous_runs =
      Delta(before, after, "gsn_continuous_runs_total");
  const double one_shot = Delta(before, after, "gsn_queries_total");
  const double exec_us = Delta(before, after, "gsn_query_exec_micros_sum");
  result->Set("container.continuous_runs", continuous_runs, "count");
  // Continuous runs and one-shot queries share the exec histogram; each
  // workload runs only one kind during its measured phase.
  result->Set("sql.continuous_exec_us",
              one_shot == 0 && continuous_runs > 0 ? exec_us / continuous_runs
                                                   : 0,
              "us");
  result->Set("sql.exec_us",
              continuous_runs == 0 && one_shot > 0 ? exec_us / one_shot : 0,
              "us");
  result->Set("sql.parse_us",
              HistMean(before, after, "gsn_query_parse_micros"), "us");
  result->Set("sql.cache_hits",
              Delta(before, after, "gsn_query_cache_hits_total"), "count");
  result->Set("storage.segment_rows_scanned",
              Delta(before, after, "gsn_segment_scanned_rows"), "count");
  result->Set("storage.segment_chunks_pruned",
              Delta(before, after, "gsn_segment_pruned_chunks"), "count");
  for (const char* name :
       {"dups", "gaps", "replays", "retries"}) {
    result->Set(std::string("container.federation_") + name,
                Delta(before, after,
                      std::string("gsn_federation_") + name + "_total"),
                "count");
  }
}

bool Result::correct() const {
  if (checks.empty()) return false;
  for (const Check& check : checks) {
    if (!check.ok) return false;
  }
  return true;
}

std::string WriteSpans(const Args& args, const std::vector<Span>& spans) {
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return path;
}

void ReportTrace(const Args& args, const std::vector<Span>& spans,
                 double e2e_total_ms, double blocking_total_ms,
                 double untraced_p50_ms, double traced_p50_ms,
                 Result* result) {
  result->notes.push_back("spans: " + std::to_string(spans.size()) +
                          " written to " + WriteSpans(args, spans));
  for (const auto& [name, summary] : Summarize(spans)) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "span %-22s count %8lld  total %10.3f ms  self %10.3f ms",
                  name.c_str(), static_cast<long long>(summary.count),
                  summary.total_ms, summary.self_ms);
    result->notes.push_back(line);
  }
  const double residual =
      e2e_total_ms > 0 ? 100.0 * (e2e_total_ms - blocking_total_ms) /
                             e2e_total_ms
                       : 0;
  result->Set("trace.residual_pct", residual, "%");
  result->Set("trace.overhead_pct",
              untraced_p50_ms > 0
                  ? 100.0 * (traced_p50_ms / untraced_p50_ms - 1.0)
                  : 0,
              "%");
}

double GeneratorValue(int64_t seq, int64_t period) {
  const double phase = 2.0 * M_PI * static_cast<double>(seq % period) /
                       static_cast<double>(period);
  return std::sin(phase);
}

std::string FreshDir(const Args& args, const std::string& name) {
  const std::string path = args.out_dir + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

void RemoveDir(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

std::string FilesystemKind(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  constexpr long kTmpfsMagic = 0x01021994;
  constexpr long kRamfsMagic = 0x858458f6;
  return fs.f_type == kTmpfsMagic || fs.f_type == kRamfsMagic ? "memory"
                                                             : "disk";
}

}  // namespace e2e
