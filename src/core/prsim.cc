#include "core/prsim.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/index_io.h"
#include "util/dense_accumulator.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/sample_grid.h"

namespace prsim {

/// Pooled per-engine scratch for the chunked query path. Everything here is
/// reused across queries: FlatHashMap2::clear() and
/// DenseAccumulator::Reset() retain capacity, so steady-state queries
/// allocate nothing per walk (and, once the touched-node set stabilizes,
/// nothing at all).
///
/// Every pass that feeds ordered work — RNG draws, float sums into a shared
/// cell, result emission — iterates insertion order, never a map's slot
/// layout: FlatHashMap2::ForEach walks insertion order, and the node-keyed
/// merge accumulators (the tail columns and the scores) are
/// DenseAccumulators, which keep their own first-touch list. Slot layout
/// depends on the capacity retained from earlier queries; insertion order
/// is a pure function of the query, which is what keeps Query(u)
/// bit-identical regardless of what the engine ran before.
///
/// The two dense accumulators are sized to the graph on the first query:
/// about 9 bytes per node for the scores and 5 for the tail's column index,
/// plus 4 bytes per touched node each.
struct PRSim::QueryWorkspace {
  /// One slot per static sample chunk; slot i is written only by the worker
  /// running chunk i, then read by the merge pass after the join.
  struct Chunk {
    Chunk(const Graph& graph, double c) : backward(graph, c) {}
    /// eta(w) * pi_l(u, w) sample counts keyed by PackNodeLevel(w, l).
    /// Counts (not 1/nr masses): integer merges are exact in any order.
    FlatHashMap2<uint64_t> eta_pi{256};
    /// This chunk's partial tail-sum per touched node. A chunk never spans
    /// a round, so these are partials of exactly one round's column.
    FlatHashMap2<double> tail{256};
    BackwardWalker backward;
    Rng rng{0};
    QueryCost cost;

    void Reset() {
      eta_pi.clear();
      tail.clear();
      cost = QueryCost{};
    }
  };

  QueryWorkspace(const Graph& graph, double c, uint32_t rounds,
                 uint64_t samples_per_round)
      : tasks(BuildSampleChunks(rounds, samples_per_round)) {
    chunks.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) chunks.emplace_back(graph, c);
  }

  std::vector<SampleChunk> tasks;
  std::vector<Chunk> chunks;

  // Merge-pass accumulators (main thread only).
  FlatHashMap2<uint64_t> eta_pi{1024};  ///< merged sample counts
  RoundColumns tail;  ///< per-(node, round) tail sums + median reduce
  DenseAccumulator<double> scores;  ///< tail medians + hub-index join
};

PRSim::PRSim(const Graph& graph, const PRSimOptions& options)
    : graph_(graph), options_(options), walker_(graph, options.c) {
  PRSIM_CHECK(options_.eps > 0) << "eps must be positive";
  PRSIM_CHECK(options_.delta > 0 && options_.delta < 1);
  sqrt_c_ = std::sqrt(options_.c);
  const double term = 1.0 - sqrt_c_;
  inv_term_sq_ = 1.0 / (term * term);
  c1_ = 12.0 * inv_term_sq_;

  const double n = std::max<double>(graph_.n(), 2);
  if (options_.paper_constants) {
    dr_ = static_cast<uint64_t>(std::ceil(c1_ / (options_.eps * options_.eps)));
    fr_ = static_cast<uint32_t>(std::ceil(3.0 * std::log(n / options_.delta)));
  } else {
    dr_ = static_cast<uint64_t>(
        std::ceil(options_.alpha / (options_.eps * options_.eps)));
    fr_ = options_.rounds;
  }
  dr_ = std::max<uint64_t>(dr_, 1);
  fr_ |= 1;  // odd round count keeps the median unambiguous
}

PRSim::~PRSim() = default;

PRSimIndexOptions PRSim::IndexOptions() const {
  PRSimIndexOptions index_options;
  index_options.c = options_.c;
  index_options.eps = options_.eps;
  index_options.j0 = options_.j0;
  index_options.max_level = options_.max_level;
  index_options.threads = options_.threads;
  return index_options;
}

Status PRSim::Preprocess() {
  PRSIM_ASSIGN_OR_RETURN(PRSimIndex built,
                         PRSimIndex::Build(graph_, IndexOptions()));
  index_ = std::make_shared<const PRSimIndex>(std::move(built));
  return Status::OK();
}

Status PRSim::SaveIndex(const std::string& path) const {
  if (index_ == nullptr) {
    return Status::InvalidArgument(
        "PRSim: no index built; call Preprocess() before SaveIndex()");
  }
  return PRSimIndexIO::Save(*index_, graph_, IndexOptions(), path);
}

Status PRSim::LoadIndex(const std::string& path) {
  PRSIM_ASSIGN_OR_RETURN(PRSimIndex loaded,
                         PRSimIndexIO::Load(graph_, IndexOptions(), path));
  index_ = std::make_shared<const PRSimIndex>(std::move(loaded));
  return Status::OK();
}

ScoreList PRSim::Query(NodeId u) {
  PRSIM_CHECK(index_ != nullptr) << "call Preprocess() before Query()";
  PRSIM_CHECK(u < graph_.n()) << "query node out of range";
  cost_ = QueryCost{};

  const uint64_t nr = dr_ * fr_;
  const double inv_nr = 1.0 / static_cast<double>(nr);
  const double tail_scale =
      inv_term_sq_ / static_cast<double>(dr_);  // 1/((1-sqrt_c)^2 dr)

  if (workspace_ == nullptr) {
    workspace_ =
        std::make_unique<QueryWorkspace>(graph_, options_.c, fr_, dr_);
  }
  QueryWorkspace& ws = *workspace_;

  // Phase 1: run the static chunks of the (round, j) grid. Each chunk draws
  // from its own positional RNG substream and accumulates into its own slot,
  // so any number of workers — including the serial fallback inside pool
  // workers that ParallelFor applies — produces identical chunk partials.
  const auto run_chunk = [&](size_t i) {
    const SampleChunk& task = ws.tasks[i];
    QueryWorkspace::Chunk& chunk = ws.chunks[i];
    chunk.Reset();
    chunk.rng.Reseed(SampleChunkSeed(options_.seed, u, task, dr_));
    for (uint64_t j = task.j_lo; j < task.j_hi; ++j) {
      ++chunk.cost.walks;
      const WalkOutcome walk = walker_.SampleWalk(u, chunk.rng);
      if (!walk.terminated) continue;
      const NodeId w = walk.terminal;
      const uint32_t level = walk.steps;

      ++chunk.cost.meeting_tests;
      if (walker_.SamplePairMeets(w, chunk.rng)) continue;
      // Non-meeting sample: contributes to eta(w) * pi_l(u, w), and for
      // non-hub w also to the backward-walk tail estimate (the proof of
      // Lemma 3.7 samples (w, l) with probability pi_l(u, w) * eta(w)).
      ++chunk.eta_pi[PackNodeLevel(w, level)];

      if (index_->IsHub(w)) continue;
      ++chunk.cost.backward_walks;
      chunk.cost.backward_increments += chunk.backward.RunVarianceBounded(
          w, level, chunk.rng, [&](NodeId v, double value) {
            chunk.tail[v] += value * tail_scale;
          });
    }
  };
  ParallelFor(0, ws.tasks.size(), run_chunk, options_.threads);

  // Phase 2: merge chunk partials in grid order, iterating each chunk's
  // maps in insertion order. Tail partials of one (node, round) column
  // arrive in ascending block order — the fixed-order float sums that make
  // the result independent of the worker count — and the integer eta-pi
  // counts and cost counters merge exactly regardless.
  ws.eta_pi.clear();
  ws.tail.Reset(fr_, graph_.n());
  for (size_t i = 0; i < ws.tasks.size(); ++i) {
    const uint32_t round = ws.tasks[i].round;
    QueryWorkspace::Chunk& chunk = ws.chunks[i];
    cost_.Accumulate(chunk.cost);
    chunk.eta_pi.ForEach(
        [&ws](uint64_t key, uint64_t count) { ws.eta_pi[key] += count; });
    chunk.tail.ForEach([&](uint64_t v, double partial) {
      ws.tail.Add(static_cast<NodeId>(v), round, partial);
    });
  }

  // Score accumulator: emission follows its first-touch order, so result
  // order is history-independent too.
  ws.scores.Reset(graph_.n());

  // Median over rounds for the tail part (Lines 14-15).
  ws.tail.ForEachMedian([&ws](NodeId v, double median) {
    if (median > 0) ws.scores[v] += median;
  });

  // Index part (Lines 16-18): resolve heavy (w, l) pairs against the hub
  // reserve lists. Reserve lists of distinct (w, l) can hit the same node,
  // so this float-sum order follows eta_pi's insertion order.
  const double keep_threshold = options_.eps / c1_;
  ws.eta_pi.ForEach([&](uint64_t key, uint64_t count) {
    const double mass = static_cast<double>(count) * inv_nr;
    if (mass <= keep_threshold) return;
    const auto* reserves = index_->Find(UnpackNode(key), UnpackLevel(key));
    if (reserves == nullptr) return;
    cost_.index_tuples_read += reserves->size();
    const double scale = mass * inv_term_sq_;
    for (const auto& [v, psi] : *reserves) {
      ws.scores[v] += scale * static_cast<double>(psi);
    }
  });

  ScoreList result;
  result.reserve(ws.scores.size() + 1);
  ws.scores.ForEach([&](NodeId v, double score) {
    // Any mass accumulated on the source itself is discarded: s(u, u) is
    // exactly 1 and is appended below.
    if (v != u && score > 0) result.emplace_back(v, score);
  });
  result.emplace_back(u, 1.0);
  return result;
}

PRSim::WorkspaceSnapshot PRSim::SnapshotWorkspace() const {
  WorkspaceSnapshot snapshot;
  if (workspace_ == nullptr) return snapshot;
  const QueryWorkspace& ws = *workspace_;
  snapshot.chunk_count = ws.tasks.size();
  for (const QueryWorkspace::Chunk& chunk : ws.chunks) {
    snapshot.map_capacity += chunk.eta_pi.capacity() + chunk.tail.capacity() +
                             chunk.backward.ScratchCapacity();
  }
  snapshot.map_capacity += ws.eta_pi.capacity();
  snapshot.buffer_capacity +=
      ws.tail.BufferCapacity() + ws.scores.BufferCapacity();
  return snapshot;
}

size_t PRSim::IndexBytes() const {
  return index_ != nullptr ? index_->IndexBytes() : 0;
}

}  // namespace prsim
