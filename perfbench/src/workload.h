// The benchmark's workloads and the one pipeline that runs each of them.
//
// A run is two processes, as `prsim_cli index` and `serve --index` are:
//   index stage  generate the seeded graph and write it as a text edge
//                list; the `prsim_cli index` path (text edge list to
//                Graph, PRSim index build, graph and index artifacts
//                saved).
//   run          set-up, timed from the process's start: the artifacts
//                loaded into a registry engine and its first answer; a
//                QueryService behind an in-process net::TcpServer over the
//                same artifacts, as `serve --listen --threads nproc-1`
//                builds it, with the clients connected. Then interleaved
//                rounds of
//     queries    single-source queries one at a time at threads=nproc-1;
//     batch      a fixed source list through BatchQueryWithStats;
//     index      the index path again, into throwaway artifacts;
//     serve      a closed loop with a fixed number of requests in flight,
//                then an open loop at a fixed rate;
//   and the output checks.
// Every workload runs the same stages on its own inputs, so every run
// reports every metric. The workloads differ in graph, eps, traffic and
// cache, which decides which layer dominates each.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "trace.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  /// The graph is the workload's dataset, drawn once from a fixed seed, as
  /// a paper's datasets are fixed: a run seed that redrew it would move
  /// index size and query cost more than the bounds a change is held to.
  /// Graphs small enough for the exact oracle are scored by it; larger ones
  /// by the Monte Carlo estimator.
  GraphSpec graph;
  double eps;
  /// Query phase: `query_sources` fixed sources, answered in turn for
  /// query_share of every round; a source's latency is its fastest answer,
  /// which filters out stalls that other tenants of the machine cause.
  size_t query_sources;
  double query_share;
  /// Batch phase: whole repetitions of a fixed batch_size source list, at
  /// least one per round, for batch_share of a round.
  size_t batch_size;
  double batch_share;
  /// Serve phase traffic: Zipf(zipf_s) sources, top-k of fresh-seed
  /// answers, over two connections.
  double zipf_s;
  size_t cache_bytes;
  double open_rate;     ///< open loop: requests per second
  double warmup_share;  ///< of --seconds, once before the rounds
  double closed_share;  ///< of a round
  double open_share;    ///< of a round
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct RunOptions {
  /// The index stage instead of the measured run.
  bool index_stage = false;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  unsigned threads = 1;  ///< nproc
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::string failure;  ///< the first failed check, if any
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< filled by traced runs only
};

/// The index stage: writes the workload's graph and its artifacts into
/// the run's directory under options.workdir. False, with a reason, on
/// failure.
bool PrepareWorkload(const WorkloadSpec& spec, const RunOptions& options,
                     std::string* error);

/// The measured run, on the artifacts that PrepareWorkload left; deletes
/// them when it ends. Returns false, with a reason, when the run could not
/// be carried out at all (as opposed to a failed output check).
bool RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                 RunReport* report, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
