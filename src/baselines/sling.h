// SLING (Tian & Xiao [32]): hitting-probability index for SimRank.
//
// SLING evaluates s(u, v) = sum_l sum_w h_l(u, w) h_l(v, w) eta(w) (paper
// Eq. 5) from a fully materialized index:
//   * eta(w) for every node, estimated by Monte Carlo pair-walks — the
//     O(n log(n/delta)/eps^2) preprocessing PRSim's on-the-fly eta*pi
//     estimation eliminates;
//   * hitting probabilities h_l(v, w) above eps for *every* target w,
//     computed by backward search from every node and stored in both a
//     source-major view (for the query node) and a (w, l)-major inverted
//     view — the O(n/eps) index PRSim shrinks to hubs only.
//
// Queries are fast index joins; the cost is paid in index size and
// preprocessing time, which is exactly how SLING behaves in Figures 4/5.
// A memory budget aborts preprocessing gracefully on configurations that
// would not fit, mirroring the paper's omitted (out-of-memory) data points.

#ifndef PRSIM_BASELINES_SLING_H_
#define PRSIM_BASELINES_SLING_H_

#include <cstdint>
#include <vector>

#include "core/single_source.h"
#include "graph/graph.h"
#include "ppr/walker.h"
#include "util/dense_accumulator.h"
#include "util/flat_hash_map2.h"
#include "util/rng.h"

namespace prsim {

struct SlingOptions {
  double c = 0.6;
  double eps = 0.1;    ///< absolute error target eps_a
  double delta = 1e-4; ///< failure probability (enters the eta sample count)
  /// eta Monte Carlo samples per node = ceil(alpha_eta * 3 ln(n/delta) /
  /// eps^2) — the Theta(log(n/delta)/eps^2) preprocessing term [32] that
  /// PRSim's on-the-fly estimation removes. Capped below.
  double alpha_eta = 1.0;
  uint64_t max_eta_samples = 200000;
  /// Abort preprocessing if the index would exceed this many stored tuples.
  uint64_t max_index_tuples = 200000000;
  uint32_t max_level = 64;
  /// Worker threads for the eta estimates and backward searches (0 =
  /// DefaultThreadCount()). Changes only the build time, never the index
  /// bytes: every thread count yields the serial build's artifact.
  size_t threads = 0;
  uint64_t seed = 13;
};

class Sling : public SingleSourceSimRank {
 public:
  Sling(const Graph& graph, const SlingOptions& options);

  std::string name() const override { return "SLING"; }
  NodeId node_count() const override { return graph_.n(); }

  Status Preprocess() override;
  ScoreList Query(NodeId u) override;

  /// Persists the full index (eta, source-major view, inverted view) as a
  /// fingerprinted artifact. The options hash covers everything that shapes
  /// the index contents, including the build seed (eta is Monte Carlo).
  Status SaveIndex(const std::string& path) const override;
  Status LoadIndex(const std::string& path) override;

  /// Queries are deterministic index joins over an immutable index, so the
  /// clone shares it in O(1) (the seed only enters eta estimation at build
  /// time).
  std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    SlingOptions options = options_;
    options.seed = seed;
    auto clone = std::make_unique<Sling>(graph_, options);
    clone->index_ = index_;
    return clone;
  }
  uint64_t seed() const override { return options_.seed; }

  size_t IndexBytes() const override;
  bool IsIndexBased() const override { return true; }

  double eta(NodeId w) const { return index_->eta[w]; }
  /// Stored (v, h) tuples, the count max_index_tuples bounds.
  uint64_t index_tuples() const { return index_->target_payload.size(); }
  bool preprocessed() const { return index_ != nullptr; }

 private:
  // Source-major view: for query node u, all (level, w, h_l(u, w)).
  struct SourceEntry {
    NodeId w;
    uint32_t level;
    float h;
  };
  // Inverted view: for (w, level), all (v, h_l(v, w)); flattened CSR keyed by
  // PackNodeLevel(w, level).
  struct TargetList {
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  /// The immutable built index, shared across clones.
  struct Index {
    std::vector<double> eta;
    std::vector<std::vector<SourceEntry>> source_index;
    FlatHashMap2<TargetList> target_lists{1024};
    std::vector<std::pair<NodeId, float>> target_payload;
  };

  uint64_t OptionsHash() const;

  const Graph& graph_;
  SlingOptions options_;
  Walker walker_;
  std::shared_ptr<const Index> index_;
  /// Per-query score scratch, sized to the graph on the first query; a
  /// clone starts with its own, empty one.
  DenseAccumulator<double> scores_;
};

}  // namespace prsim

#endif  // PRSIM_BASELINES_SLING_H_
