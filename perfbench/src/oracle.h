// SimRank oracles owned by the benchmark, independent of src/baselines and
// src/eval: both read the benchmark's own edge list, never a program Graph.
//
//   ExactSimRank       all-pairs power iteration for small graphs;
//   MonteCarloSimRank  sqrt(c)-walk pair estimator with a Hoeffding bound,
//                      for spot checks on graphs too large for the former.
//
// SimRank here is the paper's: s(u, u) = 1, s(u, v) = 0 when u or v has no
// in-neighbour, otherwise c times the mean of s over in-neighbour pairs.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "inputs.h"

namespace perfbench {

/// In-neighbour lists in CSR form.
struct InAdjacency {
  InAdjacency(Node n, const EdgeList& edges);

  Node n = 0;
  std::vector<uint64_t> offsets;  ///< size n + 1
  std::vector<Node> sources;      ///< in-neighbours of v at [offsets[v], offsets[v+1])

  uint64_t InDegree(Node v) const { return offsets[v + 1] - offsets[v]; }
};

class ExactSimRank {
 public:
  /// Runs `iterations` rounds of S <- c * Q S Q^T with the diagonal reset
  /// to 1, where Q row-normalises the in-adjacency. Each round reads the
  /// previous matrix row by row, split across `threads` threads.
  ExactSimRank(const InAdjacency& graph, double c, int iterations,
               unsigned threads);

  double At(Node u, Node v) const {
    return scores_[static_cast<size_t>(u) * n_ + v];
  }
  /// Every entry is within this of the true SimRank: c^(iterations + 1).
  double error_bound() const { return error_bound_; }

 private:
  Node n_ = 0;
  std::vector<double> scores_;
  double error_bound_ = 1;
};

class MonteCarloSimRank {
 public:
  MonteCarloSimRank(const InAdjacency& graph, double c)
      : graph_(graph), sqrt_c_(std::sqrt(c)) {}

  /// Share of `samples` pairs of sqrt(c)-walks from u and v that meet: two
  /// walks step in lockstep to uniform in-neighbours, each going on with
  /// probability sqrt(c), and meet when both are alive on one node after the
  /// same number of steps. Unbiased for s(u, v); deterministic in `seed`.
  double Estimate(Node u, Node v, uint64_t samples, uint64_t seed) const;

  /// Hoeffding half-width: |estimate - s| <= this with probability at
  /// least 1 - delta, since every sample lies in [0, 1].
  static double HalfWidth(uint64_t samples, double delta);

 private:
  const InAdjacency& graph_;
  double sqrt_c_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
