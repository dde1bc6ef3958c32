// Output checks and accuracy scoring. Every check returns an empty string
// when the output passes and a one-line reason when it does not, so a run
// can report the first failure it meets.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/single_source.h"
#include "net/frame.h"

namespace perfbench {

/// A full single-source answer holds (source, 1.0) exactly once, names
/// every node at most once and only nodes below n, and keeps every other
/// score in (0, c + eps].
std::string CheckFullAnswer(const prsim::ScoreList& answer,
                            prsim::NodeId source, prsim::NodeId n, double c,
                            double eps);

/// A top-k reply is OK, answers the requested source, holds at most k
/// entries, excludes the source, and is sorted by score descending, then
/// by node id ascending.
std::string CheckReply(const prsim::net::WireResponse& reply,
                       prsim::NodeId requested, uint32_t k);

/// Same nodes in the same order with bit-identical scores.
std::string CheckIdentical(const prsim::ScoreList& got,
                           const prsim::ScoreList& want);

/// Every returned score lies within `tolerance` of oracle_row[node].
std::string CheckWithinOracle(const prsim::ScoreList& returned,
                              const std::vector<double>& oracle_row,
                              double tolerance);

/// The paper's AvgError@k and Precision@k for one source. `oracle_row`
/// holds the reference score of every node (0 where unknown). error is the
/// mean |returned - oracle| over the returned entries; precision is the
/// share of the reference top-k that the returned list recovers, where a
/// node within `tie_tolerance` of the reference k-th score counts as a hit.
/// `defined` is false when the source has no positive reference score or
/// the reply is empty.
struct TopKAccuracy {
  double error = 0;
  double precision = 0;
  bool defined = false;
};
TopKAccuracy ScoreTopK(const prsim::ScoreList& returned,
                       const std::vector<double>& oracle_row,
                       prsim::NodeId source, size_t k, double tie_tolerance);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
