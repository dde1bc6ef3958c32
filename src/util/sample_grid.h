// Static chunking of a (round, j) sample grid, shared by every
// median-of-means estimator (PRSim::Query, RpprEstimator).
//
// The chunk layout is a pure function of (rounds, samples_per_round) — never
// of the thread count or of which worker runs a chunk. Combined with one RNG
// substream per chunk (seeded positionally from the chunk's first sample)
// and a merge that visits chunks in grid order, every estimate is
// bit-identical however many threads execute the grid:
//
//  * a chunk never spans a round, so each per-(node, round) tail column is
//    the fixed-order sum of that round's chunk partials;
//  * count-valued accumulators (eta-pi sample counts, cost counters) are
//    integers, so their merges are exact in any order anyway.
//
// The chunk count targets kTargetSampleChunks: enough slack for static
// scheduling to balance load across typical worker counts without the merge
// pass or the pooled per-chunk workspaces growing with the sample count.

#ifndef PRSIM_UTIL_SAMPLE_GRID_H_
#define PRSIM_UTIL_SAMPLE_GRID_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/dense_accumulator.h"
#include "util/rng.h"

namespace prsim {

/// One static chunk of the sample grid: samples [j_lo, j_hi) of `round`.
struct SampleChunk {
  uint32_t round = 0;
  uint64_t j_lo = 0;
  uint64_t j_hi = 0;
};

/// Upper bound on the chunk count (see header comment). 64 gives 4x
/// oversubscription at 16 workers while keeping the fixed-order merge and
/// the pooled per-chunk workspaces O(64).
inline constexpr uint64_t kTargetSampleChunks = 64;

/// Splits `rounds` x `samples_per_round` into round-major chunks that never
/// cross a round boundary. Layout depends only on the two arguments.
inline std::vector<SampleChunk> BuildSampleChunks(uint32_t rounds,
                                                  uint64_t samples_per_round) {
  std::vector<SampleChunk> chunks;
  if (rounds == 0 || samples_per_round == 0) return chunks;
  const uint64_t blocks_per_round =
      std::min(samples_per_round,
               std::max<uint64_t>(1, kTargetSampleChunks / rounds));
  const uint64_t block =
      (samples_per_round + blocks_per_round - 1) / blocks_per_round;
  chunks.reserve(static_cast<size_t>(rounds) * blocks_per_round);
  for (uint32_t round = 0; round < rounds; ++round) {
    for (uint64_t j_lo = 0; j_lo < samples_per_round; j_lo += block) {
      chunks.push_back(
          {round, j_lo, std::min(samples_per_round, j_lo + block)});
    }
  }
  return chunks;
}

/// Stateless positional seed derivation (splitmix over a golden-ratio
/// stream offset): nearby streams yield decorrelated substreams.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  return SplitMix64(state);
}

/// Seed of a chunk's RNG substream: positional in (base seed, query stream,
/// linear index of the chunk's first sample). `stream` distinguishes
/// estimation targets (e.g. the source node), so repeated queries are pure
/// functions of (seed, target) while distinct targets get decorrelated
/// substreams.
inline uint64_t SampleChunkSeed(uint64_t seed, uint64_t stream,
                                const SampleChunk& chunk,
                                uint64_t samples_per_round) {
  return MixSeed(MixSeed(seed, stream),
                 chunk.round * samples_per_round + chunk.j_lo);
}

/// \brief Per-(node, round) column accumulator + median-of-rounds reduce —
/// the merge half of the chunked median-of-means estimators (PRSim's tail
/// part, RpprEstimator), kept in ONE place because it encodes the
/// bit-identity invariant: Add() must be called in fixed grid order (all
/// chunks of round r in ascending block order), and ForEachMedian() visits
/// nodes in first-touch order, so neither values nor output order depend on
/// the worker count or on what earlier estimates left behind.
///
/// The node-to-column index is a DenseAccumulator, sized to the graph by
/// Reset(); all storage is reusable workspace.
class RoundColumns {
 public:
  /// Empties the columns for an estimate over node ids [0, n).
  void Reset(uint32_t rounds, size_t n) {
    rounds_ = rounds;
    column_of_.Reset(n);
    columns_.clear();
  }

  /// Adds a chunk partial into `v`'s column for `round`.
  void Add(uint32_t v, uint32_t round, double value) {
    uint32_t& column = column_of_[v];
    if (column == 0) {  // 0 is the sentinel for "new"; columns start at 1
      columns_.resize(columns_.size() + rounds_, 0.0);
      column = static_cast<uint32_t>(column_of_.size());
    }
    columns_[static_cast<size_t>(column - 1) * rounds_ + round] += value;
  }

  size_t node_count() const { return column_of_.size(); }

  /// fn(v, median over v's per-round sums), in first-touch node order.
  /// Callers filter non-positive medians themselves.
  template <typename Fn>
  void ForEachMedian(Fn&& fn) {
    buffer_.resize(rounds_);
    const std::vector<uint32_t>& nodes = column_of_.touched();
    for (size_t slot = 0; slot < nodes.size(); ++slot) {
      const double* column = &columns_[slot * rounds_];
      std::copy(column, column + rounds_, buffer_.begin());
      const auto mid = buffer_.begin() + rounds_ / 2;
      std::nth_element(buffer_.begin(), mid, buffer_.end());
      fn(nodes[slot], *mid);
    }
  }

  /// Capacity probe for the workspace-reuse tests.
  size_t BufferCapacity() const {
    return column_of_.BufferCapacity() + columns_.capacity() +
           buffer_.capacity();
  }

 private:
  uint32_t rounds_ = 0;
  DenseAccumulator<uint32_t> column_of_;  // 1-based column per node
  std::vector<double> columns_;  // rounds_ doubles per column, in column order
  std::vector<double> buffer_;
};

}  // namespace prsim

#endif  // PRSIM_UTIL_SAMPLE_GRID_H_
