// perfbench: one run of one workload, in two processes.
//
//   perfbench --stage index --workload NAME --seed N --workdir DIR
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// The index stage writes the workload's graph and its graph and index
// artifacts under DIR, as `prsim_cli index` would, and prints nothing. The
// run then starts from those artifacts, as `serve --index` would, and
// prints {"correct": ..., "attempted": ..., "failed": ..., "metrics":
// {...}} as the last line of standard output, with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). A traced run also
// writes its spans under DIR/traces and prints its own end-to-end figures
// on standard error, so the tracing overhead can be read off against an
// untraced run. Exits 0 after the index stage or after printing a result
// (check "correct"), 2 on bad flags, 1 when a stage could not be carried
// out.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workload.h"

namespace {

// As close to the process's start as user code gets: setup_s counts from
// here.
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

unsigned CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench [--stage index|run] --workload NAME "
               "--seed N --seconds S --trace 0|1 --workdir DIR\nworkloads:",
               why);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = kProcessStart;
  options.threads = CpuCount();
  std::string workload;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--stage") {
      if (value != "index" && value != "run") return Usage("--stage takes index or run");
      options.index_stage = value == "index";
    } else if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  if (!(options.seconds > 0) || options.workdir.empty()) {
    return Usage("--seconds must be positive and --workdir given");
  }

  std::string error;
  if (options.index_stage) {
    if (perfbench::PrepareWorkload(*spec, options, &error)) return 0;
    std::fprintf(stderr, "perfbench: index stage: %s\n", error.c_str());
    return 1;
  }
  perfbench::RunReport report;
  if (!perfbench::RunWorkload(*spec, options, &report, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  if (!report.correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", report.failure.c_str());
  }
  if (options.trace) {
    std::fprintf(stderr, "traced end-to-end: %s\n",
                 MetricsJson(report.end_to_end).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(options.trace ? report.per_layer : report.end_to_end)
                  .c_str());
  return 0;
}
