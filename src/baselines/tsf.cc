#include "baselines/tsf.h"

#include <cmath>

#include "core/artifact.h"
#include "util/logging.h"
#include "util/serde.h"

namespace prsim {

namespace {

constexpr char kTsfKind[] = "tsf-index";

/// Decorrelates the query-time walk stream from the raw build seed.
constexpr uint64_t kQueryStreamSalt = 0xa24baed4963ee407ULL;

}  // namespace

Tsf::Tsf(const Graph& graph, const TsfOptions& options)
    : graph_(graph), options_(options), rng_(options.seed) {
  PRSIM_CHECK(options_.rg > 0 && options_.rq > 0 && options_.depth > 0);
}

Status Tsf::Preprocess() {
  const NodeId n = graph_.n();
  const uint64_t entries =
      static_cast<uint64_t>(options_.rg) * static_cast<uint64_t>(n);
  if (entries > options_.max_index_entries) {
    return Status::ResourceExhausted(
        "TSF: index of " + std::to_string(entries) +
        " parent pointers exceeds budget");
  }
  std::vector<NodeId> parents(entries);
  for (uint32_t g = 0; g < options_.rg; ++g) {
    NodeId* slice = &parents[static_cast<uint64_t>(g) * n];
    for (NodeId v = 0; v < n; ++v) {
      const uint32_t din = graph_.InDegree(v);
      slice[v] =
          din == 0 ? kNoParent : graph_.InNeighborAt(v, rng_.NextIndex(din));
    }
  }
  parents_ = std::make_shared<const std::vector<NodeId>>(std::move(parents));
  StartQueryStream();
  return Status::OK();
}

void Tsf::StartQueryStream() { rng_.Reseed(options_.seed ^ kQueryStreamSalt); }

uint64_t Tsf::OptionsHash() const {
  // The stored parents depend on (rg, seed) only, but rq and depth define
  // the estimator the index was sized for, so they are fingerprinted too;
  // c and max_index_entries never reach the index bytes.
  return OptionsHasher()
      .Add("rg", options_.rg)
      .Add("rq", options_.rq)
      .Add("depth", options_.depth)
      .Add("seed", options_.seed)
      .hash();
}

Status Tsf::SaveIndex(const std::string& path) const {
  if (parents_ == nullptr) {
    return Status::InvalidArgument(
        "TSF: no index built; call Preprocess() before SaveIndex()");
  }
  ArtifactWriter artifact(path, kTsfKind);
  WriteFingerprint(artifact.AddSection("fingerprint"),
                   MakeFingerprint(graph_, OptionsHash()));
  artifact.AddSection("index").WriteVector(*parents_);
  return artifact.Finish();
}

Status Tsf::LoadIndex(const std::string& path) {
  const NodeId n = graph_.n();
  PRSIM_ASSIGN_OR_RETURN(ArtifactReader artifact,
                         ArtifactReader::Open(path, kTsfKind));
  {
    PRSIM_ASSIGN_OR_RETURN(SectionReader fingerprint,
                           artifact.Section("fingerprint"));
    PRSIM_RETURN_NOT_OK(ReadAndCheckFingerprint(
        fingerprint, MakeFingerprint(graph_, OptionsHash()), path));
  }
  PRSIM_ASSIGN_OR_RETURN(SectionReader reader, artifact.Section("index"));
  std::vector<NodeId> parents;
  PRSIM_RETURN_NOT_OK(reader.ReadVector(&parents));
  if (parents.size() !=
      static_cast<uint64_t>(options_.rg) * static_cast<uint64_t>(n)) {
    return Status::IOError("corrupt parent block in '" + path + "'");
  }
  for (NodeId parent : parents) {
    if (parent >= n && parent != kNoParent) {
      return Status::IOError("corrupt parent pointer in '" + path + "'");
    }
  }
  PRSIM_RETURN_NOT_OK(reader.Finish());
  parents_ = std::make_shared<const std::vector<NodeId>>(std::move(parents));
  StartQueryStream();
  return Status::OK();
}

ScoreList Tsf::Query(NodeId u) {
  PRSIM_CHECK(parents_ != nullptr) << "call Preprocess() before Query()";
  PRSIM_CHECK(u < graph_.n());
  const NodeId n = graph_.n();
  const double c = options_.c;
  const double inv_norm =
      1.0 / (static_cast<double>(options_.rg) * options_.rq);
  cost_ = QueryCost{};
  cost_.walks =
      static_cast<uint64_t>(options_.rg) * static_cast<uint64_t>(options_.rq);
  scores_.Reset(n);

  child_off_.assign(n + 1, 0);
  child_adj_.resize(n);
  std::vector<NodeId> walk(options_.depth + 1);

  for (uint32_t g = 0; g < options_.rg; ++g) {
    const NodeId* parent = parents_->data() + static_cast<uint64_t>(g) * n;
    // Invert the parent pointers of this one-way graph into child lists so
    // "which nodes are i steps above x" is a BFS down the child CSR.
    std::fill(child_off_.begin(), child_off_.end(), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (parent[v] != kNoParent) ++child_off_[parent[v] + 1];
    }
    for (NodeId v = 0; v < n; ++v) child_off_[v + 1] += child_off_[v];
    {
      std::vector<uint32_t> cursor(child_off_.begin(), child_off_.end() - 1);
      for (NodeId v = 0; v < n; ++v) {
        if (parent[v] != kNoParent) child_adj_[cursor[parent[v]]++] = v;
      }
    }

    for (uint32_t q = 0; q < options_.rq; ++q) {
      // Fresh uniform reverse walk from u on the original graph (TSF uses
      // undiscounted walks of fixed depth; the c^i factor is analytic).
      uint32_t len = 0;
      walk[0] = u;
      for (uint32_t i = 1; i <= options_.depth; ++i) {
        const uint32_t din = graph_.InDegree(walk[i - 1]);
        if (din == 0) break;
        walk[i] = graph_.InNeighborAt(walk[i - 1], rng_.NextIndex(din));
        len = i;
      }
      // Nodes whose parent chain is at walk[i] after i steps are exactly the
      // depth-i descendants of walk[i] in the child forest.
      double weight = 1.0;
      for (uint32_t i = 1; i <= len; ++i) {
        weight *= c;
        frontier_.assign(1, walk[i]);
        for (uint32_t d = 0; d < i && !frontier_.empty(); ++d) {
          frontier_next_.clear();
          for (NodeId x : frontier_) {
            for (uint32_t e = child_off_[x]; e < child_off_[x + 1]; ++e) {
              frontier_next_.push_back(child_adj_[e]);
            }
          }
          std::swap(frontier_, frontier_next_);
        }
        const double contribution = weight * inv_norm;
        for (NodeId v : frontier_) {
          if (v != u) scores_[v] += contribution;
        }
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

size_t Tsf::IndexBytes() const {
  return parents_ == nullptr ? 0 : parents_->size() * sizeof(NodeId);
}

}  // namespace prsim
