// DenseAccumulator: first-touch order, O(touched) reset without leaks into
// the next use, and growth when a larger node range arrives later. These
// are the properties PRSim's scores and tail columns and the SLING/READS/
// TSF score maps rely on for bit-identical answers.

#include "util/dense_accumulator.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/sample_grid.h"

namespace prsim {
namespace {

using Entries = std::vector<std::pair<uint32_t, double>>;

Entries Collect(const DenseAccumulator<double>& acc) {
  Entries out;
  acc.ForEach([&](uint32_t v, double value) { out.emplace_back(v, value); });
  return out;
}

TEST(DenseAccumulatorTest, FirstTouchOrderSurvivesRepeatedAdds) {
  DenseAccumulator<double> acc;
  acc.Reset(10);
  EXPECT_EQ(acc.size(), 0u);
  acc[7] += 1.0;
  acc[2] += 0.5;
  acc[7] += 2.0;
  acc[9] += 0.25;
  acc[2] += 0.5;
  acc[7] += 4.0;
  EXPECT_EQ(acc.touched(), (std::vector<uint32_t>{7, 2, 9}));
  EXPECT_EQ(acc.size(), 3u);
  EXPECT_EQ(Collect(acc), (Entries{{7, 7.0}, {2, 1.0}, {9, 0.25}}));
}

TEST(DenseAccumulatorTest, AddingZeroStillTouches) {
  // A first touch is recorded even when the value stays zero, so callers
  // that filter on the value (score > 0) see the same node set a map did.
  DenseAccumulator<double> acc;
  acc.Reset(4);
  acc[3] += 0.0;
  EXPECT_EQ(acc.touched(), (std::vector<uint32_t>{3}));
}

TEST(DenseAccumulatorTest, ResetLeaksNothingIntoTheNextUse) {
  DenseAccumulator<double> acc;
  acc.Reset(8);
  for (uint32_t v : {5u, 1u, 3u, 6u}) acc[v] += 10.0 + v;
  acc.Reset(8);
  EXPECT_EQ(acc.size(), 0u);
  // B overlaps A in {3, 5} and adds {0, 7}; its first-touch order differs.
  acc[3] += 0.125;
  acc[0] += 2.0;
  acc[5] += 1.5;
  acc[7] += 0.75;
  acc[3] += 0.125;
  // A's other nodes start from zero again when B touches them.
  acc[6] += 0.5;
  acc[1] += 0.0;
  EXPECT_EQ(Collect(acc), (Entries{{3, 0.25},
                                   {0, 2.0},
                                   {5, 1.5},
                                   {7, 0.75},
                                   {6, 0.5},
                                   {1, 0.0}}));
}

TEST(DenseAccumulatorTest, GrowsWhenALargerRangeArrives) {
  DenseAccumulator<double> acc;
  acc.Reset(4);
  acc[3] += 1.0;
  const size_t small = acc.BufferCapacity();
  acc.Reset(1000);
  EXPECT_GT(acc.BufferCapacity(), small);
  acc[999] += 2.0;
  acc[3] += 0.5;
  EXPECT_EQ(Collect(acc), (Entries{{999, 2.0}, {3, 0.5}}));
  // A smaller range later keeps the arrays (they never shrink).
  const size_t large = acc.BufferCapacity();
  acc.Reset(4);
  EXPECT_EQ(acc.size(), 0u);
  EXPECT_EQ(acc.BufferCapacity(), large);
  acc.Reset(1000);
  acc[999] += 0.25;
  EXPECT_EQ(Collect(acc), (Entries{{999, 0.25}}));
}

TEST(DenseAccumulatorTest, SteadyReuseAllocatesNothing) {
  DenseAccumulator<double> acc;
  const auto use = [&acc] {
    acc.Reset(64);
    for (uint32_t v = 0; v < 64; v += 3) acc[v] += 1.0;
  };
  use();
  const size_t capacity = acc.BufferCapacity();
  use();
  EXPECT_EQ(acc.BufferCapacity(), capacity);
}

TEST(RoundColumnsTest, MediansFollowFirstTouchAcrossResets) {
  RoundColumns columns;
  columns.Reset(3, 10);
  columns.Add(4, 0, 1.0);
  columns.Add(4, 1, 3.0);
  columns.Add(4, 2, 2.0);
  columns.Add(8, 1, 5.0);
  std::vector<std::pair<uint32_t, double>> medians;
  columns.ForEachMedian(
      [&](uint32_t v, double median) { medians.emplace_back(v, median); });
  EXPECT_EQ(medians, (Entries{{4, 2.0}, {8, 0.0}}));

  // The next estimate touches 8 first and must not see 4's old columns.
  columns.Reset(3, 10);
  columns.Add(8, 0, 1.0);
  columns.Add(4, 2, 7.0);
  columns.Add(8, 2, 1.0);
  EXPECT_EQ(columns.node_count(), 2u);
  medians.clear();
  columns.ForEachMedian(
      [&](uint32_t v, double median) { medians.emplace_back(v, median); });
  EXPECT_EQ(medians, (Entries{{8, 1.0}, {4, 0.0}}));
}

}  // namespace
}  // namespace prsim
