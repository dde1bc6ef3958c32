#include "core/prsim_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "ppr/reverse_pagerank.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace prsim {

Result<PRSimIndex> PRSimIndex::Build(const Graph& graph,
                                     const PRSimIndexOptions& options) {
  if (options.c <= 0 || options.c >= 1) {
    return Status::InvalidArgument("PRSimIndex: c must lie in (0, 1)");
  }
  if (options.eps <= 0) {
    return Status::InvalidArgument("PRSimIndex: eps must be positive");
  }
  PRSimIndex index;
  const double sqrt_c = std::sqrt(options.c);
  index.rmax_ = options.rmax > 0
                    ? options.rmax
                    : (1.0 - sqrt_c) * (1.0 - sqrt_c) * options.eps / 12.0;

  // Reverse PageRank and hub selection (Algorithm 1, line 5).
  ReversePageRankOptions rpr_options;
  rpr_options.c = options.c;
  index.rpr_ = ComputeReversePageRank(graph, rpr_options);
  uint32_t j0 = options.j0;
  if (j0 == 0) {
    j0 = static_cast<uint32_t>(
        std::lround(std::sqrt(static_cast<double>(graph.n()))));
  }
  j0 = std::min<uint32_t>(j0, graph.n());
  const std::vector<NodeId> ranked = RankNodesByValue(index.rpr_);
  index.hub_nodes_.assign(ranked.begin(), ranked.begin() + j0);

  index.hub_levels_.resize(j0);
  for (uint32_t slot = 0; slot < j0; ++slot) {
    index.hub_slot_[index.hub_nodes_[slot]] = slot;
  }

  // One backward search per hub (Algorithm 1, lines 6-17). Hubs are ranked
  // by reverse PageRank, so the costliest searches come first; static
  // chunks would hand them all to one worker. Instead every worker takes
  // the next hub from one shared counter. Each search writes only its own
  // slot, so the index is the same at any thread count.
  BackwardSearchOptions search;
  search.c = options.c;
  search.rmax = index.rmax_;
  search.max_level = options.max_level;
  const size_t workers = std::min<size_t>(
      options.threads == 0 ? DefaultThreadCount() : options.threads, j0);
  std::atomic<size_t> next_slot{0};
  ParallelFor(
      0, workers,
      [&](size_t /*worker*/) {
        for (size_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
             slot < j0;
             slot = next_slot.fetch_add(1, std::memory_order_relaxed)) {
          BackwardSearchResult result =
              BackwardSearch(graph, index.hub_nodes_[slot], search);
          index.hub_levels_[slot].levels = std::move(result.levels);
        }
      },
      workers);

  for (const auto& hub : index.hub_levels_) {
    for (const auto& level : hub.levels) {
      index.total_tuples_ += level.size();
    }
  }
  return index;
}

size_t PRSimIndex::IndexBytes() const {
  size_t bytes = hub_slot_.MemoryBytes();
  bytes += hub_nodes_.size() * sizeof(NodeId);
  for (const auto& hub : hub_levels_) {
    bytes += hub.levels.size() * sizeof(void*);
    for (const auto& level : hub.levels) {
      bytes += level.size() * (sizeof(NodeId) + sizeof(float));
    }
  }
  return bytes;
}

}  // namespace prsim
