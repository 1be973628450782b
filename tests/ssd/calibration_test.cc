#include "src/ssd/calibration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::ssd {
namespace {

CalibrationOptions FastOptions() {
  CalibrationOptions opt;
  opt.warmup = 200 * kMillisecond;
  opt.measure = 500 * kMillisecond;
  opt.working_set_bytes = 256 * kMiB;
  return opt;
}

class CalibrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new CalibrationTable(Calibrate(Intel320Profile(), FastOptions()));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static CalibrationTable* table_;
};

CalibrationTable* CalibrationFixture::table_ = nullptr;

TEST_F(CalibrationFixture, IopsDecreaseWithSize) {
  const auto& t = *table_;
  for (size_t i = 1; i < t.sizes_kb.size(); ++i) {
    EXPECT_LE(t.rand_read_iops[i], t.rand_read_iops[i - 1] * 1.02)
        << "read size " << t.sizes_kb[i];
    EXPECT_LE(t.rand_write_iops[i], t.rand_write_iops[i - 1] * 1.02)
        << "write size " << t.sizes_kb[i];
  }
}

TEST_F(CalibrationFixture, ReadsFasterThanWrites) {
  const auto& t = *table_;
  for (size_t i = 0; i < t.sizes_kb.size(); ++i) {
    EXPECT_GT(t.rand_read_iops[i], t.rand_write_iops[i])
        << "size " << t.sizes_kb[i];
  }
}

TEST_F(CalibrationFixture, SmallWriteCostRatioNearPaper) {
  // Paper Fig. 6: a 1KB write costs ~3x a 1KB read.
  const auto& t = *table_;
  const double ratio = t.rand_read_iops[0] / t.rand_write_iops[0];
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST_F(CalibrationFixture, MaxIopsNearPaperIntelValue) {
  // Paper: interference-free max ~37.5 kop/s on the Intel 320.
  EXPECT_GT(table_->max_iops(), 30000.0);
  EXPECT_LT(table_->max_iops(), 45000.0);
}

TEST_F(CalibrationFixture, LargeOpsAreBandwidthBound) {
  // At 256KB, read bandwidth should approach the SATA II bus (~257 MB/s
  // effective) while IOPS collapse to ~1 kop/s — the paper's shifting
  // bottleneck (§3.3).
  const auto& t = *table_;
  const double iops_256k = t.rand_read_iops.back();
  const double bw = iops_256k * 256.0 * 1024.0;
  EXPECT_GT(bw, 200e6);
  EXPECT_LT(iops_256k, 1500.0);
}

TEST_F(CalibrationFixture, InterpolationMatchesEndpoints) {
  const auto& t = *table_;
  EXPECT_DOUBLE_EQ(t.RandReadIops(1024), t.rand_read_iops.front());
  EXPECT_DOUBLE_EQ(t.RandReadIops(256 * 1024), t.rand_read_iops.back());
  // Below/above the probed range clamps.
  EXPECT_DOUBLE_EQ(t.RandReadIops(512), t.rand_read_iops.front());
  EXPECT_DOUBLE_EQ(t.RandReadIops(1024 * 1024), t.rand_read_iops.back());
}

TEST_F(CalibrationFixture, InterpolationIsMonotoneBetweenPoints) {
  const auto& t = *table_;
  double prev = t.RandReadIops(1024);
  for (uint32_t s = 2048; s <= 256 * 1024; s += 1024) {
    const double cur = t.RandReadIops(s);
    EXPECT_LE(cur, prev * 1.02) << "size " << s;
    prev = cur;
  }
}

// The interpolation as it was before it found the bracket by comparing
// sizes: log2 of every sweep point on every call.
double Log2ScanInterpolate(const std::vector<uint32_t>& sizes_kb,
                           const std::vector<double>& iops,
                           uint32_t size_bytes) {
  const double kb = std::max(1.0, static_cast<double>(size_bytes) / 1024.0);
  const double x = std::log2(kb);
  const double x_lo = std::log2(static_cast<double>(sizes_kb.front()));
  const double x_hi = std::log2(static_cast<double>(sizes_kb.back()));
  if (x <= x_lo) {
    return iops.front();
  }
  if (x >= x_hi) {
    return iops.back();
  }
  for (size_t i = 1; i < sizes_kb.size(); ++i) {
    const double xi = std::log2(static_cast<double>(sizes_kb[i]));
    if (x <= xi) {
      const double xp = std::log2(static_cast<double>(sizes_kb[i - 1]));
      const double frac = (x - xp) / (xi - xp);
      return iops[i - 1] * (1.0 - frac) + iops[i] * frac;
    }
  }
  return iops.back();
}

TEST_F(CalibrationFixture, InterpolationMatchesLog2ScanBitForBit) {
  const auto& t = *table_;
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  for (uint32_t size = 0; size <= 4 * 1024 * 1024; size += 512) {
    for (const uint32_t s : {size, size + 1}) {
      ASSERT_EQ(bits(t.RandReadIops(s)),
                bits(Log2ScanInterpolate(t.sizes_kb, t.rand_read_iops, s)))
          << "size " << s;
      ASSERT_EQ(bits(t.RandWriteIops(s)),
                bits(Log2ScanInterpolate(t.sizes_kb, t.rand_write_iops, s)))
          << "size " << s;
    }
  }
}

// Calibrate probes copies of one preconditioned FTL on several threads;
// each point must equal the serial path, a probe on its own freshly
// prefilled device.
TEST(CalibrationTest, SweepMatchesFreshProbes) {
  const CalibrationTable t = Calibrate(Intel320Profile(), FastOptions());
  ASSERT_EQ(t.sizes_kb.size(), static_cast<size_t>(kNumSweepSizes));
  for (size_t i = 0; i < t.sizes_kb.size(); ++i) {
    const uint32_t size = t.sizes_kb[i] * 1024;
    const CalibrationOptions opt = FastOptions();
    EXPECT_EQ(t.rand_read_iops[i],
              MeasureIops(Intel320Profile(), IoType::kRead, size, false, opt))
        << "rand read " << t.sizes_kb[i] << " KiB";
    EXPECT_EQ(t.rand_write_iops[i],
              MeasureIops(Intel320Profile(), IoType::kWrite, size, false, opt))
        << "rand write " << t.sizes_kb[i] << " KiB";
    EXPECT_EQ(t.seq_read_iops[i],
              MeasureIops(Intel320Profile(), IoType::kRead, size, true, opt))
        << "seq read " << t.sizes_kb[i] << " KiB";
    EXPECT_EQ(t.seq_write_iops[i],
              MeasureIops(Intel320Profile(), IoType::kWrite, size, true, opt))
        << "seq write " << t.sizes_kb[i] << " KiB";
  }
}

TEST(CalibrationTest, Sata3ProfilesAreFaster) {
  CalibrationOptions opt = FastOptions();
  const double intel_64k =
      MeasureIops(Intel320Profile(), IoType::kRead, 64 * 1024, false, opt);
  const double samsung_64k =
      MeasureIops(Samsung840Profile(), IoType::kRead, 64 * 1024, false, opt);
  EXPECT_GT(samsung_64k, intel_64k * 1.4);
}

}  // namespace
}  // namespace libra::ssd
