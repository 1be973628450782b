#include "src/common/stats.h"

#include <gtest/gtest.h>

namespace libra {
namespace {

TEST(SampleSetTest, PercentilesInterpolate) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Min(), 10.0);
  EXPECT_DOUBLE_EQ(s.Max(), 40.0);
  EXPECT_DOUBLE_EQ(s.Median(), 25.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.25), 17.5);
}

TEST(SampleSetTest, AddAfterQueryResorts) {
  SampleSet s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
  s.Add(1.0);
  s.Add(9.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
}

TEST(MinMaxRatioTest, EmptyIsPerfect) {
  EXPECT_DOUBLE_EQ(MinMaxRatio({}), 1.0);
}

TEST(MinMaxRatioTest, EqualSharesArePerfect) {
  EXPECT_DOUBLE_EQ(MinMaxRatio({0.8, 0.8, 0.8}), 1.0);
}

TEST(MinMaxRatioTest, SkewLowersRatio) {
  EXPECT_DOUBLE_EQ(MinMaxRatio({0.5, 1.0}), 0.5);
  EXPECT_DOUBLE_EQ(MinMaxRatio({1.0, 0.25, 0.5}), 0.25);
}

TEST(MinMaxRatioTest, NonPositiveMaxIsZero) {
  EXPECT_DOUBLE_EQ(MinMaxRatio({0.0, 0.0}), 0.0);
}

}  // namespace
}  // namespace libra
