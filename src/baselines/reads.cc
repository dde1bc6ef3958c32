#include "baselines/reads.h"

#include <algorithm>
#include <cmath>

#include "core/artifact.h"
#include "util/logging.h"
#include "util/serde.h"

namespace prsim {

namespace {

constexpr char kReadsKind[] = "reads-index";

}  // namespace

Reads::Reads(const Graph& graph, const ReadsOptions& options)
    : graph_(graph), options_(options), rng_(options.seed) {
  PRSIM_CHECK(options_.r > 0 && options_.t > 0);
}

Status Reads::Preprocess() {
  const NodeId n = graph_.n();
  const uint32_t r = options_.r;
  const uint32_t t = options_.t;
  const double sqrt_c = std::sqrt(options_.c);

  // Rough expected entries: n * r * expected live steps (geometric).
  const double expected_len = sqrt_c / (1.0 - sqrt_c);
  const double expected_entries =
      static_cast<double>(n) * r * std::min<double>(expected_len, t);
  if (expected_entries > static_cast<double>(options_.max_index_entries)) {
    return Status::ResourceExhausted(
        "READS: expected index entries exceed budget");
  }

  StoredWalks walks;
  walks.traj_off.assign(static_cast<size_t>(n) * r + 1, 0);
  walks.buckets.assign(static_cast<size_t>(r) * t, {});

  // Sample and store r truncated sqrt(c)-walks per node. Trajectories hold
  // positions for steps 1..len (step 0 is the source itself).
  for (NodeId v = 0; v < n; ++v) {
    for (uint32_t j = 0; j < r; ++j) {
      NodeId pos = v;
      for (uint32_t i = 1; i <= t; ++i) {
        if (rng_.NextDouble() >= sqrt_c) break;
        const uint32_t din = graph_.InDegree(pos);
        if (din == 0) break;
        pos = graph_.InNeighborAt(pos, rng_.NextIndex(din));
        walks.traj_pos.push_back(pos);
        walks.buckets[static_cast<size_t>(j) * t + (i - 1)].push_back(
            {pos, v});
      }
      walks.traj_off[static_cast<size_t>(v) * r + j + 1] =
          static_cast<uint32_t>(walks.traj_pos.size());
    }
  }
  if (walks.traj_pos.size() > options_.max_index_entries) {
    return Status::ResourceExhausted("READS: index entries exceed budget");
  }
  for (auto& bucket : walks.buckets) {
    std::sort(bucket.begin(), bucket.end(),
              [](const Occurrence& a, const Occurrence& b) {
                return a.node < b.node;
              });
  }
  index_ = std::make_shared<const StoredWalks>(std::move(walks));
  meet_epoch_.assign(n, 0);
  epoch_ = 0;
  return Status::OK();
}

ScoreList Reads::Query(NodeId u) {
  PRSIM_CHECK(index_ != nullptr) << "call Preprocess() before Query()";
  PRSIM_CHECK(u < graph_.n());
  cost_ = QueryCost{};
  const StoredWalks& walks = *index_;
  const uint32_t r = options_.r;
  const uint32_t t = options_.t;
  const double inv_r = 1.0 / static_cast<double>(r);
  scores_.Reset(graph_.n());

  for (uint32_t j = 0; j < r; ++j) {
    // One epoch per sample: a v meeting at several steps counts once.
    if (++epoch_ == 0) {
      // Wrapped: stale stamps could equal the restarted counter, so clear
      // them and restart at 1 (0 is what a cleared stamp holds).
      std::fill(meet_epoch_.begin(), meet_epoch_.end(), 0);
      epoch_ = 1;
    }
    const uint32_t begin = walks.traj_off[static_cast<size_t>(u) * r + j];
    const uint32_t end = walks.traj_off[static_cast<size_t>(u) * r + j + 1];
    for (uint32_t i = 0; i < end - begin && i < t; ++i) {
      const NodeId x = walks.traj_pos[begin + i];
      const auto& bucket = walks.buckets[static_cast<size_t>(j) * t + i];
      // All sources whose walk j is also at x at step i + 1.
      auto lo = std::lower_bound(
          bucket.begin(), bucket.end(), x,
          [](const Occurrence& occ, NodeId node) { return occ.node < node; });
      for (; lo != bucket.end() && lo->node == x; ++lo) {
        ++cost_.index_tuples_read;
        const NodeId v = lo->source;
        if (v == u) continue;
        if (meet_epoch_[v] == epoch_) continue;  // already met this sample
        meet_epoch_[v] = epoch_;
        scores_[v] += inv_r;
      }
    }
  }

  ScoreList out;
  out.reserve(scores_.size() + 1);
  scores_.ForEach([&](NodeId v, double score) {
    if (score > 0) out.emplace_back(v, score);
  });
  out.emplace_back(u, 1.0);
  return out;
}

uint64_t Reads::OptionsHash() const {
  // c shapes the walk termination, (r, t) the index dimensions, and the
  // seed the sampled walks themselves; max_index_entries is only a budget.
  return OptionsHasher()
      .Add("c", options_.c)
      .Add("r", options_.r)
      .Add("t", options_.t)
      .Add("seed", options_.seed)
      .hash();
}

Status Reads::SaveIndex(const std::string& path) const {
  if (index_ == nullptr) {
    return Status::InvalidArgument(
        "READS: no index built; call Preprocess() before SaveIndex()");
  }
  const StoredWalks& walks = *index_;
  ArtifactWriter artifact(path, kReadsKind);
  WriteFingerprint(artifact.AddSection("fingerprint"),
                   MakeFingerprint(graph_, OptionsHash()));
  ByteSink& writer = artifact.AddSection("index");
  writer.WriteVector(walks.traj_off);
  writer.WriteVector(walks.traj_pos);

  std::vector<uint64_t> bucket_off;
  bucket_off.reserve(walks.buckets.size() + 1);
  uint64_t total = 0;
  bucket_off.push_back(0);
  for (const auto& bucket : walks.buckets) {
    total += bucket.size();
    bucket_off.push_back(total);
  }
  writer.WriteVector(bucket_off);
  // Stream the occurrence table bucket by bucket (same bytes as one
  // WriteVector of the concatenation, without holding that second copy).
  writer.WritePod(total);
  for (const auto& bucket : walks.buckets) {
    writer.WriteElements(bucket.data(), bucket.size());
  }
  return artifact.Finish();
}

Status Reads::LoadIndex(const std::string& path) {
  const NodeId n = graph_.n();
  const size_t bucket_count =
      static_cast<size_t>(options_.r) * options_.t;
  PRSIM_ASSIGN_OR_RETURN(ArtifactReader artifact,
                         ArtifactReader::Open(path, kReadsKind));
  {
    PRSIM_ASSIGN_OR_RETURN(SectionReader fingerprint,
                           artifact.Section("fingerprint"));
    PRSIM_RETURN_NOT_OK(ReadAndCheckFingerprint(
        fingerprint, MakeFingerprint(graph_, OptionsHash()), path));
  }
  PRSIM_ASSIGN_OR_RETURN(SectionReader reader, artifact.Section("index"));

  StoredWalks walks;
  PRSIM_RETURN_NOT_OK(reader.ReadVector(&walks.traj_off));
  PRSIM_RETURN_NOT_OK(reader.ReadVector(&walks.traj_pos));
  if (walks.traj_off.size() != static_cast<size_t>(n) * options_.r + 1 ||
      walks.traj_off.front() != 0 ||
      walks.traj_off.back() != walks.traj_pos.size()) {
    return Status::IOError("corrupt trajectory offsets in '" + path + "'");
  }
  for (size_t i = 0; i + 1 < walks.traj_off.size(); ++i) {
    if (walks.traj_off[i] > walks.traj_off[i + 1]) {
      return Status::IOError("corrupt trajectory offsets in '" + path + "'");
    }
  }
  for (NodeId pos : walks.traj_pos) {
    if (pos >= n) {
      return Status::IOError("corrupt trajectory position in '" + path +
                             "'");
    }
  }

  std::vector<uint64_t> bucket_off;
  PRSIM_RETURN_NOT_OK(reader.ReadVector(&bucket_off));
  if (bucket_off.size() != bucket_count + 1 || bucket_off.front() != 0) {
    return Status::IOError("corrupt bucket offsets in '" + path + "'");
  }
  for (size_t i = 0; i < bucket_count; ++i) {
    if (bucket_off[i] > bucket_off[i + 1]) {
      return Status::IOError("corrupt bucket offsets in '" + path + "'");
    }
  }
  uint64_t total = 0;
  PRSIM_RETURN_NOT_OK(reader.ReadPod(&total));
  if (total != bucket_off.back() ||
      total > reader.remaining() / sizeof(Occurrence)) {
    return Status::IOError("corrupt occurrence count in '" + path + "'");
  }
  walks.buckets.assign(bucket_count, {});
  for (size_t i = 0; i < bucket_count; ++i) {
    auto& bucket = walks.buckets[i];
    bucket.resize(bucket_off[i + 1] - bucket_off[i]);
    PRSIM_RETURN_NOT_OK(reader.ReadElements(bucket.data(), bucket.size()));
    for (size_t j = 0; j < bucket.size(); ++j) {
      const Occurrence& occ = bucket[j];
      // Query's std::lower_bound requires buckets sorted by node; enforce
      // the invariant here so a crafted file cannot load into silent UB.
      if (occ.node >= n || occ.source >= n ||
          (j > 0 && bucket[j - 1].node > occ.node)) {
        return Status::IOError("corrupt occurrence in '" + path + "'");
      }
    }
  }
  PRSIM_RETURN_NOT_OK(reader.Finish());
  index_ = std::make_shared<const StoredWalks>(std::move(walks));
  meet_epoch_.assign(n, 0);
  epoch_ = 0;
  return Status::OK();
}

size_t Reads::IndexBytes() const {
  if (index_ == nullptr) return 0;
  size_t bytes = index_->traj_off.size() * sizeof(uint32_t) +
                 index_->traj_pos.size() * sizeof(NodeId);
  for (const auto& bucket : index_->buckets) {
    bytes += bucket.size() * sizeof(Occurrence);
  }
  return bytes;
}

}  // namespace prsim
