// Tests of the benchmark's own oracles, output checks and input generators.
//
//   cmake -S perfbench -B .bench_build/perfbench -DPERFBENCH_BUILD_TESTS=ON
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test      (or: python3 perfbench/run.py --test)

#include <gtest/gtest.h>

#include <cmath>

#include "checks.h"
#include "client.h"
#include "inputs.h"
#include "oracle.h"

namespace perfbench {
namespace {

constexpr double kC = 0.6;

ExactSimRank Exact(Node n, const EdgeList& edges) {
  return ExactSimRank(InAdjacency(n, edges), kC, 40, 2);
}

TEST(ExactSimRankTest, SharedOnlyInNeighbourScoresExactlyC) {
  // 1 and 2 both have 0 as their only in-neighbour.
  const ExactSimRank exact = Exact(3, {{0, 1}, {0, 2}});
  EXPECT_DOUBLE_EQ(exact.At(1, 2), kC);
  EXPECT_DOUBLE_EQ(exact.At(2, 1), kC);
  EXPECT_EQ(exact.At(0, 1), 0.0);  // 0 has no in-neighbour
}

TEST(ExactSimRankTest, TwoSharedInNeighboursScoreHalfC) {
  // I(2) = I(3) = {0, 1}, and s(0, 1) = 0: s(2, 3) = c/4 * (1 + 0 + 0 + 1).
  const ExactSimRank exact = Exact(4, {{0, 2}, {1, 2}, {0, 3}, {1, 3}});
  EXPECT_DOUBLE_EQ(exact.At(2, 3), kC / 2);
}

TEST(ExactSimRankTest, DiagonalSymmetryAndRange) {
  const EdgeList edges = ChungLuEdges({60, 4, 2.0}, 7);
  const Node n = NodeCount(edges);
  const ExactSimRank exact = Exact(n, edges);
  EXPECT_LT(exact.error_bound(), 1e-8);
  double largest = 0;
  for (Node u = 0; u < n; ++u) {
    EXPECT_EQ(exact.At(u, u), 1.0);
    for (Node v = 0; v < n; ++v) {
      if (u == v) continue;
      EXPECT_NEAR(exact.At(u, v), exact.At(v, u), 1e-12);
      EXPECT_GE(exact.At(u, v), 0.0);
      EXPECT_LE(exact.At(u, v), kC);
      largest = std::max(largest, exact.At(u, v));
    }
  }
  EXPECT_GT(largest, 0.0);  // the graph is not trivial
}

TEST(MonteCarloSimRankTest, AgreesWithExactWithinItsBound) {
  const EdgeList edges = ChungLuEdges({80, 5, 2.0}, 11);
  const Node n = NodeCount(edges);
  const InAdjacency graph(n, edges);
  const ExactSimRank exact(graph, kC, 40, 2);
  const MonteCarloSimRank mc(graph, kC);
  constexpr uint64_t kSamples = 40000;
  constexpr double kDelta = 1e-6;
  const double bound =
      MonteCarloSimRank::HalfWidth(kSamples, kDelta) + exact.error_bound();
  int positive = 0;
  for (Node u = 0; u < 8; ++u) {
    for (Node v = u + 1; v < n; v += 7) {
      const double estimate = mc.Estimate(u, v, kSamples, u * 1000 + v);
      EXPECT_NEAR(estimate, exact.At(u, v), bound) << u << "," << v;
      positive += exact.At(u, v) > 0.01;
    }
  }
  EXPECT_GT(positive, 3);
  EXPECT_EQ(mc.Estimate(3, 3, 10, 1), 1.0);
}

TEST(MonteCarloSimRankTest, HoeffdingHalfWidth) {
  EXPECT_DOUBLE_EQ(MonteCarloSimRank::HalfWidth(1000, 0.01),
                   std::sqrt(std::log(200.0) / 2000.0));
}

// ------------------------------------------------------------- checks

/// A correct full answer for source 0, and its top-3 reply.
prsim::ScoreList FullAnswer() {
  return {{0, 1.0}, {4, 0.25}, {2, 0.125}, {7, 0.125}, {5, 0.0625}};
}
prsim::net::WireResponse Reply() {
  prsim::net::WireResponse reply;
  reply.source = 0;
  reply.scores = prsim::TopK(FullAnswer(), 3, 0);
  return reply;
}
prsim::ScoreList Scaled(prsim::ScoreList scores) {
  for (auto& entry : scores) entry.second *= 2;
  return scores;
}

TEST(ChecksTest, CorrectOutputsPass) {
  EXPECT_EQ(CheckFullAnswer(FullAnswer(), 0, 8, kC, 0.1), "");
  EXPECT_EQ(CheckReply(Reply(), 0, 3), "");
  EXPECT_EQ(CheckIdentical(Reply().scores, prsim::TopK(FullAnswer(), 3, 0)), "");
  const std::vector<double> oracle = {1, 0, 0.12, 0, 0.26, 0.06, 0, 0.13};
  EXPECT_EQ(CheckWithinOracle(Reply().scores, oracle, 0.05), "");
}

TEST(ChecksTest, ScoreScaledByTwoFails) {
  EXPECT_NE(CheckFullAnswer(Scaled(FullAnswer()), 0, 8, kC, 0.1), "");
  EXPECT_NE(CheckIdentical(Scaled(Reply().scores), Reply().scores), "");
  const std::vector<double> oracle = {1, 0, 0.12, 0, 0.26, 0.06, 0, 0.13};
  EXPECT_NE(CheckWithinOracle(Scaled(Reply().scores), oracle, 0.05), "");
  // One scaled score is enough.
  prsim::ScoreList one = Reply().scores;
  one[1].second *= 2;
  EXPECT_NE(CheckIdentical(one, Reply().scores), "");
  EXPECT_NE(CheckWithinOracle(one, oracle, 0.05), "");
}

TEST(ChecksTest, MissingEntryFails) {
  prsim::ScoreList no_source = FullAnswer();
  no_source.erase(no_source.begin());
  EXPECT_NE(CheckFullAnswer(no_source, 0, 8, kC, 0.1), "");
  prsim::ScoreList short_reply = Reply().scores;
  short_reply.pop_back();
  EXPECT_NE(CheckIdentical(short_reply, Reply().scores), "");
}

TEST(ChecksTest, ReplyForAnotherSourceFails) {
  prsim::net::WireResponse reply = Reply();
  reply.source = 4;
  EXPECT_NE(CheckReply(reply, 0, 3), "");
}

TEST(ChecksTest, MalformedRepliesFail) {
  prsim::net::WireResponse failed = Reply();
  failed.status_code = 1;
  EXPECT_NE(CheckReply(failed, 0, 3), "");
  EXPECT_NE(CheckReply(Reply(), 0, 2), "");  // more than k entries
  prsim::net::WireResponse with_source = Reply();
  with_source.scores.insert(with_source.scores.begin(), {0, 1.0});
  EXPECT_NE(CheckReply(with_source, 0, 4), "");
  prsim::net::WireResponse unsorted = Reply();
  std::swap(unsorted.scores[0], unsorted.scores[1]);
  EXPECT_NE(CheckReply(unsorted, 0, 3), "");
  prsim::net::WireResponse tie_order = Reply();  // 2 and 7 tie at 0.125
  std::swap(tie_order.scores[1], tie_order.scores[2]);
  EXPECT_NE(CheckReply(tie_order, 0, 3), "");
}

TEST(ChecksTest, FullAnswerRangeAndDuplicates) {
  prsim::ScoreList too_high = FullAnswer();
  too_high[1].second = kC + 0.2;
  EXPECT_NE(CheckFullAnswer(too_high, 0, 8, kC, 0.1), "");
  prsim::ScoreList zero = FullAnswer();
  zero[1].second = 0;
  EXPECT_NE(CheckFullAnswer(zero, 0, 8, kC, 0.1), "");
  prsim::ScoreList twice = FullAnswer();
  twice.push_back({4, 0.25});
  EXPECT_NE(CheckFullAnswer(twice, 0, 8, kC, 0.1), "");
  EXPECT_NE(CheckFullAnswer(FullAnswer(), 0, 6, kC, 0.1), "");  // node 7 >= n
}

TEST(ChecksTest, TopKAccuracy) {
  // Reference top-2 of source 0: node 1 (0.5), then nodes 2 and 3 tied.
  const std::vector<double> oracle = {1, 0.5, 0.25, 0.25, 0.125};
  const TopKAccuracy exact = ScoreTopK({{1, 0.5}, {3, 0.25}}, oracle, 0, 2, 0);
  ASSERT_TRUE(exact.defined);
  EXPECT_DOUBLE_EQ(exact.precision, 1.0);  // 3 ties with the 2nd score
  EXPECT_DOUBLE_EQ(exact.error, 0.0);
  const TopKAccuracy off = ScoreTopK({{1, 0.4}, {4, 0.3}}, oracle, 0, 2, 0);
  EXPECT_DOUBLE_EQ(off.precision, 0.5);
  EXPECT_DOUBLE_EQ(off.error, (0.1 + 0.175) / 2);
  EXPECT_FALSE(ScoreTopK({}, oracle, 0, 2, 0).defined);
}

TEST(ReplyLogTest, KeepsTheFirstReplyAndChecksEveryOther) {
  ReplyLog log(3);
  log.Add(0, Reply());
  log.Add(0, Reply());
  EXPECT_EQ(log.failure(), "");
  EXPECT_EQ(log.replies(), 2u);
  EXPECT_EQ(log.first().at(0), Reply().scores);

  ReplyLog scaled(3);
  scaled.Add(0, Reply());
  prsim::net::WireResponse twice = Reply();
  twice.scores = Scaled(twice.scores);
  scaled.Add(0, std::move(twice));
  EXPECT_NE(scaled.failure(), "");

  ReplyLog missing(3);
  missing.Add(0, Reply());
  prsim::net::WireResponse short_reply = Reply();
  short_reply.scores.pop_back();
  missing.Add(0, std::move(short_reply));
  EXPECT_NE(missing.failure(), "");

  ReplyLog other_source(3);
  other_source.Add(4, Reply());  // a reply for source 0 to a request for 4
  EXPECT_NE(other_source.failure(), "");

  ReplyLog failed(3);
  prsim::net::WireResponse error = Reply();
  error.status_code = 1;
  failed.Add(0, std::move(error));
  EXPECT_EQ(failed.failed(), 1u);
  EXPECT_NE(failed.failure(), "");
}

TEST(ReplyLogTest, MergeChecksSourcesBothLogsHold) {
  ReplyLog a(3), b(3), c(3);
  a.Add(0, Reply());
  b.Add(0, Reply());
  prsim::net::WireResponse other = Reply();
  other.scores[0].second *= 2;
  c.Add(0, std::move(other));
  a.Merge(std::move(b));
  EXPECT_EQ(a.failure(), "");
  EXPECT_EQ(a.replies(), 2u);
  a.Merge(std::move(c));
  EXPECT_NE(a.failure(), "");
  EXPECT_EQ(a.replies(), 3u);
  EXPECT_EQ(a.first().size(), 1u);
}

// ------------------------------------------------------------- inputs

struct Inputs {
  std::string edge_text;
  std::vector<Node> uniform;
  std::vector<Node> zipf;
  std::vector<double> schedule;
};

Inputs Generate(uint64_t seed) {
  Inputs inputs;
  const EdgeList edges = ChungLuEdges({500, 6, 1.35}, StreamSeed(seed, 1));
  inputs.edge_text = EdgeListText(edges);
  const std::vector<Node> pool = NodesWithInEdges(edges, NodeCount(edges));
  inputs.uniform = UniformSources(pool, 200, StreamSeed(seed, 2));
  const ZipfSampler sampler(pool, 1.2, StreamSeed(seed, 3));
  Rng rng(StreamSeed(seed, 4));
  for (int i = 0; i < 200; ++i) inputs.zipf.push_back(sampler.Sample(rng));
  inputs.schedule = PoissonSchedule(1000, 200, StreamSeed(seed, 5));
  return inputs;
}

TEST(InputsTest, OneSeedGivesByteIdenticalInputs) {
  const Inputs a = Generate(42);
  const Inputs b = Generate(42);
  EXPECT_EQ(a.edge_text, b.edge_text);
  EXPECT_EQ(a.uniform, b.uniform);
  EXPECT_EQ(a.zipf, b.zipf);
  EXPECT_EQ(a.schedule, b.schedule);
}

TEST(InputsTest, AnotherSeedGivesOtherInputs) {
  const Inputs a = Generate(42);
  const Inputs b = Generate(43);
  EXPECT_NE(a.edge_text, b.edge_text);
  EXPECT_NE(a.uniform, b.uniform);
  EXPECT_NE(a.zipf, b.zipf);
  EXPECT_NE(a.schedule, b.schedule);
}

TEST(InputsTest, ChungLuGraphIsSimpleAndSkewed) {
  const EdgeList edges = ChungLuEdges({2000, 10, 2.0}, 5);
  std::vector<uint32_t> out_degree(2000, 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_NE(edges[i].first, edges[i].second);
    if (i > 0) {
      EXPECT_LT(edges[i - 1], edges[i]);  // sorted, no duplicates
    }
    ++out_degree[edges[i].first];
  }
  EXPECT_GT(edges.size(), 2000u * 8);
  EXPECT_GT(out_degree[0], 20u * out_degree[1999] + 20);  // heavy head
}

TEST(InputsTest, ZipfFavoursItsHeadAndScheduleKeepsItsRate) {
  std::vector<Node> pool(1000);
  for (Node i = 0; i < 1000; ++i) pool[i] = i;
  const ZipfSampler sampler(pool, 1.2, 9);
  Rng rng(10);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 20000; ++i) ++hits[sampler.Sample(rng)];
  EXPECT_GT(*std::max_element(hits.begin(), hits.end()), 20000 / 10);
  const std::vector<double> due = PoissonSchedule(500, 5000, 3);
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_NEAR(due.back(), 10.0, 0.5);  // 5000 arrivals at 500/s
}

}  // namespace
}  // namespace perfbench
