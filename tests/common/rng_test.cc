#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

namespace libra {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BoundedSamplesInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextU64(100), 100u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(LogNormalSizeTest, ZeroSigmaIsFixedSize) {
  LogNormalSize dist(4096.0, 0.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dist.Sample(rng), 4096u);
  }
}

TEST(LogNormalSizeTest, MeanMatchesParameter) {
  // Paper workloads: mean request size with sigma in bytes (e.g. 4KB mean,
  // sigma 1KB in Fig. 11).
  LogNormalSize dist(4096.0, 1024.0);
  Rng rng(23);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(dist.Sample(rng));
  }
  EXPECT_NEAR(sum / n, 4096.0, 4096.0 * 0.02);
}

TEST(LogNormalSizeTest, RespectsClamping) {
  LogNormalSize dist(4096.0, 32768.0, 1024, 8192);
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t s = dist.Sample(rng);
    EXPECT_GE(s, 1024u);
    EXPECT_LE(s, 8192u);
  }
}

TEST(LogNormalSizeTest, HigherSigmaSpreadsSamples) {
  LogNormalSize narrow(16384.0, 4096.0);
  LogNormalSize wide(16384.0, 65536.0);
  Rng rng(31);
  double narrow_var = 0.0;
  double wide_var = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double a = static_cast<double>(narrow.Sample(rng)) - 16384.0;
    const double b = static_cast<double>(wide.Sample(rng)) - 16384.0;
    narrow_var += a * a;
    wide_var += b * b;
  }
  EXPECT_GT(wide_var, narrow_var * 4);
}

TEST(ZipfTest, SamplesInRange) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 1000u);
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  ZipfGenerator zipf(10000, 0.99);
  Rng rng(41);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  // Rank 0 should dominate: YCSB-style 0.99 skew gives the head item a few
  // percent of all accesses over 10k keys.
  EXPECT_GT(counts[0], n / 50);
  // Head-10 share should far exceed the uniform expectation of 0.1%.
  int head = 0;
  for (uint64_t k = 0; k < 10; ++k) {
    head += counts[k];
  }
  EXPECT_GT(head, n / 10);
}

TEST(ZipfTest, ThetaZeroIsNearUniform) {
  ZipfGenerator zipf(100, 0.0);
  Rng rng(43);
  std::map<uint64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  // Every key should land within 3x of the uniform expectation.
  for (const auto& [k, c] : counts) {
    EXPECT_LT(c, 3 * n / 100) << "key " << k;
  }
  EXPECT_EQ(counts.size(), 100u);
}

}  // namespace
}  // namespace libra
