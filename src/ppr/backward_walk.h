// Randomized backward walks: paper Algorithms 2 and 3.
//
// Both algorithms produce unbiased estimators pi_hat_l(v, w) of the l-hop
// reverse personalized PageRank *to* a target node w, for every v, in
// O(n * pi(w)) expected time — the output-sensitive optimum. They exploit the
// in-degree-ordered out-adjacency of Graph: at each node x only the prefix of
// O(x) whose in-degree is below a (randomized) threshold is visited, which is
// how the cost avoids the full-neighborhood scans of ProbeSim's Probe.
//
//  * SimpleBackwardWalk (Algorithm 2) is unbiased but its estimator variance
//    is unbounded (see the star-gadget example in Section 3.4).
//  * VarianceBoundedBackwardWalk (Algorithm 3) additionally guarantees
//    Var[pi_hat_l(v, w)] <= pi_l(v, w) (Lemma 3.5), which is what lets PRSim
//    apply Chebyshev + the median trick.
//
// The primary API emits (node, estimate) pairs into a caller-provided sink,
// so the per-walk hot path performs no allocation: query engines accumulate
// straight into their pooled workspace maps. The vector-returning overloads
// remain for tests and the ablation bench, which want materialized results.

#ifndef PRSIM_PPR_BACKWARD_WALK_H_
#define PRSIM_PPR_BACKWARD_WALK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/flat_hash_map2.h"
#include "util/rng.h"

namespace prsim {

/// Materialized walk output (the allocating convenience form): sparse
/// estimates at the target level plus cost accounting.
struct BackwardWalkResult {
  /// Non-zero pi_hat_target_level(v, w) entries.
  std::vector<std::pair<NodeId, double>> estimates;
  /// Number of estimator increments performed (the quantity bounded by
  /// O(n pi(w) / (1 - sqrt_c)) in Lemma 3.4).
  uint64_t increments = 0;
};

/// \brief Reusable backward-walk engine (scratch maps are recycled between
/// calls; not thread-safe — use one engine per thread).
class BackwardWalker {
 public:
  BackwardWalker(const Graph& graph, double c);

  /// Algorithm 2. Unbiased, unbounded variance; kept for the ablation bench
  /// and as a correctness cross-check. Emits every non-zero
  /// pi_hat_target_level(v, w) as sink(v, estimate); returns the increment
  /// count. No allocation beyond growing the recycled scratch maps.
  template <typename Sink>
  uint64_t RunSimple(NodeId w, uint32_t target_level, Rng& rng, Sink&& sink) {
    return Run<false>(w, target_level, rng, sink);
  }

  /// Algorithm 3. Unbiased with Var[pi_hat] <= pi_l(v, w); same sink
  /// contract as RunSimple.
  template <typename Sink>
  uint64_t RunVarianceBounded(NodeId w, uint32_t target_level, Rng& rng,
                              Sink&& sink) {
    return Run<true>(w, target_level, rng, sink);
  }

  /// Allocating conveniences for tests/benches; the query engines use the
  /// sink overloads.
  BackwardWalkResult RunSimple(NodeId w, uint32_t target_level, Rng& rng);
  BackwardWalkResult RunVarianceBounded(NodeId w, uint32_t target_level,
                                        Rng& rng);

  double sqrt_c() const { return sqrt_c_; }

  /// Combined capacity of the recycled frontier maps — the workspace-reuse
  /// probe: steady-state walks must not grow it.
  size_t ScratchCapacity() const { return cur_.capacity() + next_.capacity(); }

 private:
  template <bool kVarianceBounded, typename Sink>
  uint64_t Run(NodeId w, uint32_t target_level, Rng& rng, Sink&& sink);

  /// Empties the scratch and equalizes the capacities of the two sides.
  /// cur_/next_ are swapped a per-walk-varying number of times, so without
  /// equalization a walk's growth decisions would depend on which side the
  /// larger retained buffer happens to sit in — i.e. on engine history.
  /// Symmetric capacities make reuse allocation-free: a repeated walk
  /// sequence never regrows scratch that already fit it.
  void ResetScratch() {
    cur_.clear();
    next_.clear();
    if (cur_.capacity() < next_.capacity()) {
      cur_.Reserve(next_.capacity());
    } else if (next_.capacity() < cur_.capacity()) {
      next_.Reserve(cur_.capacity());
    }
  }

  const Graph& graph_;
  double sqrt_c_;
  double term_;  // 1 - sqrt_c
  // Frontier maps. The walk consumes RNG draws while iterating the
  // frontier, so iteration MUST NOT follow the maps' slot order: slot layout
  // depends on the scratch capacity retained from earlier walks, and
  // draw-to-node association would then depend on engine history. ForEach
  // walks insertion order, a pure function of the walk itself, which is
  // what keeps queries pure functions of (seed, source).
  FlatHashMap2<double> cur_{64};
  FlatHashMap2<double> next_{64};
};

template <bool kVarianceBounded, typename Sink>
uint64_t BackwardWalker::Run(NodeId w, uint32_t target_level, Rng& rng,
                             Sink&& sink) {
  uint64_t increments = 1;
  ResetScratch();
  cur_[w] = term_;  // pi_hat_0(w, w) = 1 - sqrt_c

  for (uint32_t level = 0; level < target_level; ++level) {
    if (cur_.empty()) break;
    cur_.ForEach([&](uint64_t key, double estimate) {
      const auto x = static_cast<NodeId>(key);
      const auto outs = graph_.OutNeighbors(x);
      const auto degs = graph_.OutNeighborInDegrees(x);
      if constexpr (kVarianceBounded) {
        // Algorithm 3: continue with probability sqrt_c. Out-neighbors with
        // in-degree <= estimate/(1-sqrt_c) receive the exact share
        // estimate/d_in(y) (each such increment is >= 1-sqrt_c, which is what
        // bounds the cost); higher-degree out-neighbors receive a fixed
        // (1-sqrt_c) increment with probability estimate/(d_in(y)(1-sqrt_c)),
        // realized by thresholding one uniform draw against the sorted
        // in-degree prefix.
        if (rng.NextDouble() >= sqrt_c_) return;
        const double exact_threshold = estimate / term_;
        size_t i = 0;
        for (; i < outs.size() && degs[i] <= exact_threshold; ++i) {
          next_[outs[i]] += estimate / degs[i];
          ++increments;
        }
        if (i < outs.size()) {
          const double r = rng.NextDouble();
          const double sampled_threshold = exact_threshold / r;
          for (; i < outs.size() && degs[i] <= sampled_threshold; ++i) {
            next_[outs[i]] += term_;
            ++increments;
          }
        }
      } else {
        // Algorithm 2: every out-neighbor y with d_in(y) <= sqrt_c / r gets
        // the full current estimate, i.e. an increment of estimate with
        // probability sqrt_c / d_in(y).
        const double r = rng.NextDouble();
        const double threshold = sqrt_c_ / r;
        for (size_t i = 0; i < outs.size() && degs[i] <= threshold; ++i) {
          next_[outs[i]] += estimate;
          ++increments;
        }
      }
    });
    cur_.clear();
    std::swap(cur_, next_);
  }

  cur_.ForEach([&](uint64_t v, double estimate) {
    sink(static_cast<NodeId>(v), estimate);
  });
  // Leave the scratch empty and equalized so the state BETWEEN walks is the
  // deterministic one (the start-of-run reset is just a guard): a repeated
  // walk sequence reaches its high-water capacity once and never changes it
  // again, which is what the workspace-reuse probe asserts.
  ResetScratch();
  return increments;
}

}  // namespace prsim

#endif  // PRSIM_PPR_BACKWARD_WALK_H_
