// End-to-end benchmark runner for the GSN container. One process runs
// one workload (ingest | query | federation) and prints, as its last
// line, a JSON record: whether every independent check passed, the
// operations attempted and failed, and every metric it measured.
//
//   gsn_e2ebench --workload ingest --seed 3 --seconds 10 --trace 0
//                --out-dir .bench_build/out [--small]
//
// With --trace 1 the run also records spans around its calls into the
// program, reads the per-layer instruments from the container's
// /metrics registry, and reports the per-layer metrics instead.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gsn_e2ebench --workload ingest|query|federation "
               "--seed N --seconds S --trace 0|1 --out-dir DIR [--small]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--small") {
      args.small = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (args.out_dir.empty() || args.seconds <= 0) return Usage();
  std::filesystem::create_directories(args.out_dir);

  e2e::Result result;
  int status = 0;
  if (args.workload == "ingest") {
    status = e2e::RunIngest(args, &result);
  } else if (args.workload == "query") {
    status = e2e::RunQuery(args, &result);
  } else if (args.workload == "federation") {
    status = e2e::RunFederation(args, &result);
  } else {
    return Usage();
  }
  if (status != 0) return status;

  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string checks;
  for (const auto& check : result.checks) {
    std::printf("# check %-34s %s  %s\n", check.name.c_str(),
                check.ok ? "PASS" : "FAIL", check.detail.c_str());
    checks += std::string(checks.empty() ? "" : ",") + "{\"name\":\"" +
              JsonEscape(check.name) + "\",\"ok\":" +
              (check.ok ? "true" : "false") + ",\"detail\":\"" +
              JsonEscape(check.detail) + "\"}";
  }
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    std::printf("# %-40s %18.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    metrics += std::string(metrics.empty() ? "" : ",") + "\"" + name +
               "\":{\"value\":" + value + ",\"unit\":\"" + metric.unit +
               "\"}";
  }
  std::printf(
      "{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%lld,"
      "\"failed\":%lld,\"checks\":[%s],\"metrics\":{%s}}\n",
      args.workload.c_str(), result.correct() ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), checks.c_str(), metrics.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
