// READS (Jiang et al. [16]): stored-walk index for SimRank.
//
// Index: r sqrt(c)-walks from every node, truncated at depth t, plus an
// inverted occurrence table mapping (sample j, step i, node x) to the sources
// whose j-th walk is at x at step i. A query pairs the stored walk j of u
// with the stored walk j of every other node: the first step at which the
// two walks coincide is a meeting, and the meeting fraction over r samples
// estimates s(u, v).
//
// The published system additionally compresses the walk set into trees and
// supports dynamic updates (READS-D / READS-Rq); this implementation keeps
// the static estimator and the O(n r) index/query asymptotics, which are what
// the paper's comparison exercises (query time comparable to Monte Carlo,
// index size growing to memory-exhaustion on large graphs — Figure 4).

#ifndef PRSIM_BASELINES_READS_H_
#define PRSIM_BASELINES_READS_H_

#include <cstdint>
#include <vector>

#include "core/single_source.h"
#include "graph/graph.h"
#include "util/dense_accumulator.h"
#include "util/rng.h"

namespace prsim {

struct ReadsOptions {
  double c = 0.6;
  uint32_t r = 100;  ///< stored walks per node (paper default 100)
  uint32_t t = 10;   ///< walk depth cap (paper default 10)
  /// Abort preprocessing above this many stored walk positions.
  uint64_t max_index_entries = 400000000;
  uint64_t seed = 23;
};

class Reads : public SingleSourceSimRank {
 public:
  Reads(const Graph& graph, const ReadsOptions& options);

  std::string name() const override { return "READS"; }
  NodeId node_count() const override { return graph_.n(); }

  Status Preprocess() override;
  ScoreList Query(NodeId u) override;

  /// Persists the stored walks and the inverted occurrence table as a
  /// fingerprinted artifact. The options hash includes the seed: the walk
  /// set is a sample, so indexes from different seeds are different indexes.
  Status SaveIndex(const std::string& path) const override;
  Status LoadIndex(const std::string& path) override;

  /// The stored-walk index is immutable after Preprocess(), so the clone
  /// shares it in O(1) (queries are index joins; the seed only matters at
  /// build time). Per-query scratch stays per instance.
  std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    ReadsOptions options = options_;
    options.seed = seed;
    auto clone = std::make_unique<Reads>(graph_, options);
    clone->index_ = index_;
    if (clone->index_ != nullptr) clone->meet_epoch_.assign(graph_.n(), 0);
    return clone;
  }
  uint64_t seed() const override { return options_.seed; }
  void Reseed(uint64_t seed) override {
    options_.seed = seed;
    rng_.Reseed(seed);
  }

  size_t IndexBytes() const override;
  bool IsIndexBased() const override { return true; }

  /// Test hook: sets the meeting-dedup epoch counter (one step per stored
  /// walk), so tests can run a query across its wrap-around.
  void set_epoch_for_testing(uint32_t epoch) { epoch_ = epoch; }

 private:
  /// One stored occurrence: source v's walk j is at node `node` at step i
  /// (j and i are implicit in the bucket).
  struct Occurrence {
    NodeId node;
    NodeId source;
  };

  /// The immutable stored-walk index, shared across clones.
  ///
  /// walk_pos_[(j * n + v) * t + i] would be too large, so walks are stored
  /// per (j, step) in the inverted table only, plus a compact per-source
  /// trajectory for the query node side: packed positions with offsets.
  struct StoredWalks {
    std::vector<uint32_t> traj_off;  // (n * r + 1) offsets
    std::vector<NodeId> traj_pos;    // concatenated positions, steps 1..len
    /// Inverted table: bucket (j, i) -> occurrences sorted by node.
    std::vector<std::vector<Occurrence>> buckets;  // size r * t
  };

  uint64_t OptionsHash() const;

  const Graph& graph_;
  ReadsOptions options_;
  Rng rng_;
  std::shared_ptr<const StoredWalks> index_;

  std::vector<uint32_t> meet_epoch_;  // scratch: first-meeting dedup
  uint32_t epoch_ = 0;
  DenseAccumulator<double> scores_;  // scratch: per-query scores
};

}  // namespace prsim

#endif  // PRSIM_BASELINES_READS_H_
