// Accuracy and contract tests for every baseline algorithm against the exact
// power-method oracle on small graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "baselines/monte_carlo.h"
#include "baselines/power_method.h"
#include "baselines/probesim.h"
#include "baselines/reads.h"
#include "baselines/sling.h"
#include "baselines/topsim.h"
#include "baselines/tsf.h"
#include "test_util.h"

namespace prsim {
namespace {

using testing::MakeRandomDigraph;
using testing::MakeSharedParent;

class BaselineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeRandomDigraph(100, 600, 42);
    PowerMethodOptions pm;
    oracle_ = std::make_unique<PowerMethodSimRank>(graph_, pm);
    oracle_->Preprocess().Abort();
  }

  double MaxError(const ScoreList& estimate, NodeId u) {
    double worst = 0;
    for (NodeId v = 0; v < graph_.n(); ++v) {
      worst = std::max(worst,
                       std::abs(ScoreOf(estimate, v) - oracle_->SimRank(u, v)));
    }
    return worst;
  }

  Graph graph_;
  std::unique_ptr<PowerMethodSimRank> oracle_;
};

// --------------------------------------------------------------------------
// Monte Carlo
// --------------------------------------------------------------------------

TEST_F(BaselineFixture, MonteCarloSingleSourceAccuracy) {
  MonteCarloOptions options;
  options.samples = 8000;
  MonteCarloSimRank mc(graph_, options);
  for (NodeId u : {NodeId(0), NodeId(7)}) {
    EXPECT_LT(MaxError(mc.Query(u), u), 0.05) << u;
  }
}

TEST_F(BaselineFixture, MonteCarloPairAccuracy) {
  MonteCarloOptions options;
  options.samples = 40000;
  MonteCarloSimRank mc(graph_, options);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = 5; v < 10; ++v) {
      EXPECT_NEAR(mc.EstimatePair(u, v), oracle_->SimRank(u, v), 0.02);
    }
  }
}

TEST(MonteCarloTest, SamplesForHoeffding) {
  // log(2/0.01) / (2 * 0.01^2) ~= 26492.
  EXPECT_NEAR(MonteCarloSimRank::SamplesFor(0.01, 0.01), 26492, 2);
  EXPECT_GT(MonteCarloSimRank::SamplesFor(0.001, 0.01),
            MonteCarloSimRank::SamplesFor(0.01, 0.01));
}

// --------------------------------------------------------------------------
// ProbeSim
// --------------------------------------------------------------------------

TEST_F(BaselineFixture, ProbeSimAccuracy) {
  ProbeSimOptions options;
  options.eps = 0.05;
  options.alpha = 8;
  ProbeSim probe(graph_, options);
  ASSERT_TRUE(probe.Preprocess().ok());  // no-op: index-free
  EXPECT_EQ(probe.IndexBytes(), 0u);
  for (NodeId u : {NodeId(1), NodeId(9)}) {
    EXPECT_LT(MaxError(probe.Query(u), u), 3 * options.eps) << u;
  }
}

TEST(ProbeSimTest, SharedParent) {
  Graph g = MakeSharedParent();
  ProbeSimOptions options;
  options.eps = 0.02;
  options.alpha = 6;
  ProbeSim probe(g, options);
  EXPECT_NEAR(ScoreOf(probe.Query(0), 1), 0.6, 0.05);
}

TEST(ProbeSimTest, SampleCountFollowsEps) {
  Graph g = MakeSharedParent();
  ProbeSimOptions coarse, fine;
  coarse.eps = 0.5;
  fine.eps = 0.05;
  EXPECT_GT(ProbeSim(g, fine).samples(), ProbeSim(g, coarse).samples());
}

// --------------------------------------------------------------------------
// SLING
// --------------------------------------------------------------------------

TEST_F(BaselineFixture, SlingAccuracy) {
  SlingOptions options;
  options.eps = 0.04;
  Sling sling(graph_, options);
  ASSERT_TRUE(sling.Preprocess().ok());
  EXPECT_GT(sling.IndexBytes(), 0u);
  EXPECT_TRUE(sling.IsIndexBased());
  for (NodeId u : {NodeId(2), NodeId(11)}) {
    EXPECT_LT(MaxError(sling.Query(u), u), 4 * options.eps) << u;
  }
}

TEST(SlingTest, EtaMatchesExact) {
  // Smaller graph than the fixture: the exact eta reference runs the coupled
  // pair chain, which is O(n^2 d^2) per level.
  Graph g = MakeRandomDigraph(40, 240, 43);
  SlingOptions options;
  options.eps = 0.05;
  options.max_eta_samples = 50000;
  Sling sling(g, options);
  ASSERT_TRUE(sling.Preprocess().ok());
  const auto eta = testing::ExactEta(g, 0.6, 30);
  for (NodeId w = 0; w < 10; ++w) {
    EXPECT_NEAR(sling.eta(w), eta[w], 0.03) << w;
  }
}

TEST(SlingTest, MemoryBudgetAborts) {
  Graph g = MakeRandomDigraph(200, 1500, 5);
  SlingOptions options;
  options.eps = 0.01;
  options.max_index_tuples = 10;  // absurdly small
  Sling sling(g, options);
  auto st = sling.Preprocess();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

// --------------------------------------------------------------------------
// TSF
// --------------------------------------------------------------------------

TEST_F(BaselineFixture, TsfRoughAccuracyAndOverestimation) {
  TsfOptions options;
  options.rg = 300;
  options.rq = 20;
  Tsf tsf(graph_, options);
  ASSERT_TRUE(tsf.Preprocess().ok());
  EXPECT_GT(tsf.IndexBytes(), 0u);
  double bias = 0;
  int count = 0;
  for (NodeId u : {NodeId(3), NodeId(12)}) {
    auto result = tsf.Query(u);
    EXPECT_LT(MaxError(result, u), 0.25) << u;
    for (NodeId v = 0; v < graph_.n(); ++v) {
      if (v == u) continue;
      bias += ScoreOf(result, v) - oracle_->SimRank(u, v);
      ++count;
    }
  }
  // TSF's repeated-meeting estimator overestimates on average (Section 4).
  EXPECT_GT(bias / count, -1e-4);
}

TEST(TsfTest, MemoryBudgetAborts) {
  Graph g = MakeRandomDigraph(1000, 4000, 6);
  TsfOptions options;
  options.max_index_entries = 100;
  Tsf tsf(g, options);
  EXPECT_EQ(tsf.Preprocess().code(), StatusCode::kResourceExhausted);
}

// --------------------------------------------------------------------------
// READS
// --------------------------------------------------------------------------

TEST_F(BaselineFixture, ReadsAccuracy) {
  ReadsOptions options;
  options.r = 2000;  // small graph: crank samples for a tight check
  options.t = 15;
  Reads reads(graph_, options);
  ASSERT_TRUE(reads.Preprocess().ok());
  EXPECT_GT(reads.IndexBytes(), 0u);
  for (NodeId u : {NodeId(4), NodeId(13)}) {
    EXPECT_LT(MaxError(reads.Query(u), u), 0.05) << u;
  }
}

TEST_F(BaselineFixture, ReadsMoreWalksMoreAccuracy) {
  ReadsOptions coarse, fine;
  coarse.r = 50;
  fine.r = 3000;
  Reads a(graph_, coarse), b(graph_, fine);
  ASSERT_TRUE(a.Preprocess().ok());
  ASSERT_TRUE(b.Preprocess().ok());
  double err_a = 0, err_b = 0;
  for (NodeId u : {NodeId(0), NodeId(5), NodeId(9)}) {
    err_a += MaxError(a.Query(u), u);
    err_b += MaxError(b.Query(u), u);
  }
  EXPECT_LT(err_b, err_a);
  EXPECT_GT(b.IndexBytes(), a.IndexBytes());
}

TEST(ReadsTest, MemoryBudgetAborts) {
  Graph g = MakeRandomDigraph(1000, 8000, 7);
  ReadsOptions options;
  options.max_index_entries = 100;
  Reads reads(g, options);
  EXPECT_EQ(reads.Preprocess().code(), StatusCode::kResourceExhausted);
}

TEST(ReadsTest, EpochWrapAroundMatchesFreshEngine) {
  // The meeting dedup advances a uint32_t epoch once per stored walk (r per
  // query). A query that crosses its wrap-around must answer exactly like a
  // fresh engine: no stale stamp may read as "already met this sample".
  Graph g = MakeRandomDigraph(100, 600, 42);
  ReadsOptions options;
  Reads fresh(g, options);
  ASSERT_TRUE(fresh.Preprocess().ok());
  for (NodeId u = 0; u < 20; ++u) {
    const ScoreList expected = fresh.Query(u);
    for (const uint32_t wrap_sample : {0u, options.r / 2, options.r - 1}) {
      // A clone shares the index and starts with cleared stamps; sample
      // `wrap_sample` of its first query is the one the counter wraps on.
      auto clone = fresh.CloneWithSeed(options.seed);
      auto* wrapping = dynamic_cast<Reads*>(clone.get());
      ASSERT_NE(wrapping, nullptr);
      wrapping->set_epoch_for_testing(std::numeric_limits<uint32_t>::max() -
                                      wrap_sample);
      EXPECT_EQ(expected, wrapping->Query(u))
          << "u=" << u << " wrap_sample=" << wrap_sample;
    }
  }
}

// --------------------------------------------------------------------------
// TopSim
// --------------------------------------------------------------------------

TEST_F(BaselineFixture, TopSimFindsTopNodes) {
  // TopSim is a heuristic: hold it to a precision standard, not an error one.
  TopSimOptions options;
  TopSim topsim(graph_, options);
  int hits = 0, total = 0;
  for (NodeId u : {NodeId(6), NodeId(14), NodeId(20)}) {
    auto estimate = topsim.Query(u);
    auto mine = TopK(estimate, 10, u);
    // Exact top-10 by the oracle.
    ScoreList truth_all = oracle_->Query(u);
    auto truth = TopK(truth_all, 10, u);
    for (const auto& [v, score] : mine) {
      for (const auto& [tv, tscore] : truth) {
        if (tv == v) {
          ++hits;
          break;
        }
      }
    }
    total += 10;
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.5);
}

TEST(TopSimTest, DepthIncreasesCoverage) {
  Graph g = MakeRandomDigraph(100, 700, 8);
  TopSimOptions shallow, deep;
  shallow.depth = 1;
  deep.depth = 4;
  TopSim a(g, shallow), b(g, deep);
  EXPECT_LE(a.Query(0).size(), b.Query(0).size());
}

// --------------------------------------------------------------------------
// Shared interface contracts
// --------------------------------------------------------------------------

TEST_F(BaselineFixture, AllAlgorithmsIncludeSourceWithScoreOne) {
  MonteCarloOptions mc_opt;
  mc_opt.samples = 100;
  MonteCarloSimRank mc(graph_, mc_opt);
  ProbeSimOptions ps_opt;
  ps_opt.eps = 0.3;
  ProbeSim probe(graph_, ps_opt);
  TsfOptions tsf_opt;
  tsf_opt.rg = 10;
  tsf_opt.rq = 2;
  Tsf tsf(graph_, tsf_opt);
  ReadsOptions r_opt;
  r_opt.r = 10;
  Reads reads(graph_, r_opt);
  TopSimOptions ts_opt;
  TopSim topsim(graph_, ts_opt);
  SlingOptions sl_opt;
  sl_opt.eps = 0.2;
  Sling sling(graph_, sl_opt);

  std::vector<SingleSourceSimRank*> algorithms = {&mc,    &probe, &tsf,
                                                  &reads, &topsim, &sling};
  for (auto* algo : algorithms) {
    ASSERT_TRUE(algo->Preprocess().ok()) << algo->name();
    ScoreList result = algo->Query(25);
    EXPECT_DOUBLE_EQ(ScoreOf(result, 25), 1.0) << algo->name();
    for (const auto& [v, score] : result) {
      EXPECT_GE(score, 0.0) << algo->name();
      EXPECT_LT(v, graph_.n()) << algo->name();
    }
  }
}

TEST(TopKTest, SelectsLargestAndExcludesSource) {
  ScoreList scores = {{0, 1.0}, {1, 0.5}, {2, 0.9}, {3, 0.1}, {4, 0.7}};
  auto top2 = TopK(scores, 2, /*source=*/0);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].first, 2u);
  EXPECT_EQ(top2[1].first, 4u);
}

TEST(TopKTest, TiesBrokenByNodeId) {
  ScoreList scores = {{5, 0.5}, {2, 0.5}, {9, 0.5}};
  auto top2 = TopK(scores, 2, /*source=*/100);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].first, 2u);
  EXPECT_EQ(top2[1].first, 5u);
}

}  // namespace
}  // namespace prsim
