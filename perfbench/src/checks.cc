#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using prsim::NodeId;
using prsim::ScoreList;

namespace {

std::string Describe(const char* what, NodeId node, double score) {
  return std::string(what) + " (node " + std::to_string(node) + ", score " +
         std::to_string(score) + ")";
}

}  // namespace

std::string CheckFullAnswer(const ScoreList& answer, NodeId source, NodeId n,
                            double c, double eps) {
  std::vector<bool> seen(n, false);
  bool has_source = false;
  for (const auto& [node, score] : answer) {
    if (node >= n) return Describe("node out of range", node, score);
    if (seen[node]) return Describe("node listed twice", node, score);
    seen[node] = true;
    if (node == source) {
      if (score != 1.0) return Describe("source score is not 1", node, score);
      has_source = true;
    } else if (!(score > 0.0 && score <= c + eps)) {
      return Describe("score outside (0, c+eps]", node, score);
    }
  }
  if (!has_source) {
    return "answer for source " + std::to_string(source) +
           " lacks the (source, 1.0) entry";
  }
  return "";
}

std::string CheckReply(const prsim::net::WireResponse& reply,
                       NodeId requested, uint32_t k) {
  if (reply.status_code != 0) {
    return "reply status " + std::to_string(reply.status_code) + ": " +
           reply.error;
  }
  if (reply.source != requested) {
    return "reply for source " + std::to_string(reply.source) +
           ", requested " + std::to_string(requested);
  }
  if (reply.scores.size() > k) {
    return "reply holds " + std::to_string(reply.scores.size()) +
           " entries, k is " + std::to_string(k);
  }
  for (size_t i = 0; i < reply.scores.size(); ++i) {
    const auto& [node, score] = reply.scores[i];
    if (node == requested) return Describe("reply lists its source", node, score);
    if (i == 0) continue;
    const auto& [prev_node, prev_score] = reply.scores[i - 1];
    const bool ordered = prev_score > score ||
                         (prev_score == score && prev_node < node);
    if (!ordered) return Describe("reply out of order at", node, score);
  }
  return "";
}

std::string CheckIdentical(const ScoreList& got, const ScoreList& want) {
  if (got.size() != want.size()) {
    return "answer holds " + std::to_string(got.size()) + " entries, want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first ||
        std::memcmp(&got[i].second, &want[i].second, sizeof(double)) != 0) {
      return Describe("answer differs at", got[i].first, got[i].second);
    }
  }
  return "";
}

std::string CheckWithinOracle(const ScoreList& returned,
                              const std::vector<double>& oracle_row,
                              double tolerance) {
  for (const auto& [node, score] : returned) {
    if (node >= oracle_row.size()) {
      return Describe("node out of range", node, score);
    }
    if (std::fabs(score - oracle_row[node]) > tolerance) {
      return Describe("score off the oracle by more than the bound", node,
                      score) +
             ": oracle " + std::to_string(oracle_row[node]);
    }
  }
  return "";
}

TopKAccuracy ScoreTopK(const ScoreList& returned,
                       const std::vector<double>& oracle_row, NodeId source,
                       size_t k, double tie_tolerance) {
  TopKAccuracy accuracy;
  std::vector<double> others;
  for (NodeId v = 0; v < oracle_row.size(); ++v) {
    if (v != source && oracle_row[v] > 0) others.push_back(oracle_row[v]);
  }
  const size_t want = std::min(k, others.size());
  if (want == 0 || returned.empty()) return accuracy;
  std::nth_element(others.begin(), others.begin() + (want - 1), others.end(),
                   std::greater<double>());
  const double kth = others[want - 1];
  size_t hits = 0;
  double error = 0;
  for (const auto& [node, score] : returned) {
    const double reference = node < oracle_row.size() ? oracle_row[node] : 0;
    error += std::fabs(score - reference);
    if (node != source && reference > 0 && reference >= kth - tie_tolerance) {
      ++hits;
    }
  }
  accuracy.error = error / static_cast<double>(returned.size());
  accuracy.precision =
      static_cast<double>(std::min(hits, want)) / static_cast<double>(want);
  accuracy.defined = true;
  return accuracy;
}

}  // namespace perfbench
