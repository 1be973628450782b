#include "src/obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace libra::obs {
namespace {

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(LatencyHistogramTest, SmallValuesRecordedExactly) {
  // Values below 2 * kSubBuckets (= 64) get a dedicated slot each.
  for (uint64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets; ++v) {
    const int slot = LatencyHistogram::SlotFor(v);
    EXPECT_EQ(LatencyHistogram::SlotLowerBound(slot), v) << "v=" << v;
    EXPECT_EQ(LatencyHistogram::SlotWidth(slot), 1u) << "v=" << v;
  }
}

TEST(LatencyHistogramTest, BucketBoundariesExact) {
  // Every slot's lower bound must map back to that slot, its upper bound
  // too, and lower_bound - 1 must map to the previous slot.
  for (int s = 0; s < LatencyHistogram::kNumSlots; ++s) {
    const uint64_t lo = LatencyHistogram::SlotLowerBound(s);
    const uint64_t width = LatencyHistogram::SlotWidth(s);
    EXPECT_EQ(LatencyHistogram::SlotFor(lo), s) << "slot " << s;
    EXPECT_EQ(LatencyHistogram::SlotFor(lo + width - 1), s) << "slot " << s;
    if (s > 0) {
      EXPECT_EQ(LatencyHistogram::SlotFor(lo - 1), s - 1) << "slot " << s;
    }
  }
}

TEST(LatencyHistogramTest, SlotsArePartition) {
  // Consecutive slots tile the value range with no gaps or overlaps.
  uint64_t expected_lo = 0;
  for (int s = 0; s < LatencyHistogram::kNumSlots; ++s) {
    EXPECT_EQ(LatencyHistogram::SlotLowerBound(s), expected_lo);
    expected_lo += LatencyHistogram::SlotWidth(s);
  }
  EXPECT_EQ(expected_lo, LatencyHistogram::kMaxValue + 1);
}

TEST(LatencyHistogramTest, RelativeErrorBounded) {
  // Bucket width / lower bound <= 1 / kSubBuckets for values >= kSubBuckets.
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextU64(LatencyHistogram::kMaxValue);
    const int s = LatencyHistogram::SlotFor(v);
    const uint64_t lo = LatencyHistogram::SlotLowerBound(s);
    const uint64_t width = LatencyHistogram::SlotWidth(s);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, lo + width);
    if (lo >= LatencyHistogram::kSubBuckets) {
      EXPECT_LE(static_cast<double>(width) / static_cast<double>(lo),
                1.0 / static_cast<double>(LatencyHistogram::kSubBuckets) +
                    1e-12);
    }
  }
}

TEST(LatencyHistogramTest, OverflowSaturates) {
  LatencyHistogram h;
  h.Record(LatencyHistogram::kMaxValue + 12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), LatencyHistogram::kMaxValue + 12345);
  // p100 clamps to the recorded max even though the bucket saturated.
  EXPECT_EQ(h.Percentile(1.0), LatencyHistogram::kMaxValue + 12345);
}

TEST(LatencyHistogramTest, PercentilesOfKnownDistribution) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // p50 is the bucket holding sample #500 — within 3.2% of 500.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 500.0, 500.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 990.0, 990.0 * 0.04);
  EXPECT_EQ(h.Percentile(0.0), 1u);
  EXPECT_EQ(h.Percentile(1.0), 1000u);
}

TEST(LatencyHistogramTest, PercentileMonotonic) {
  Rng rng(7);
  LatencyHistogram h;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform-ish spread over the full range.
    const uint64_t v = rng.NextU64(1ULL << (1 + rng.NextU64(40)));
    h.Record(v);
  }
  uint64_t prev = 0;
  for (double p = 0.0; p <= 1.0; p += 0.001) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
  EXPECT_EQ(h.Percentile(1.0), h.max());
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  Rng rng(99);
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.NextU64(1000000);
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  for (double p : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, MergeWithEmpty) {
  LatencyHistogram a, empty;
  a.Record(42);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.Percentile(0.5), 42u);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(1000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.9), 0u);
}

TEST(LatencyHistogramTest, ForEachBucketCoversAllSamples) {
  Rng rng(5);
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(rng.NextU64(1 << 20));
  }
  uint64_t total = 0;
  uint64_t prev_end = 0;
  h.ForEachBucket([&](uint64_t lo, uint64_t width, uint64_t count) {
    EXPECT_GE(lo, prev_end);
    prev_end = lo + width;
    total += count;
  });
  EXPECT_EQ(total, h.count());
}

// --- Differential check against a dense reference model -------------------

// The storage the histogram had before it went sparse: every slot present,
// 64-bit counts saturating at UINT32_MAX like the real slots.
class DenseModel {
 public:
  void RecordN(uint64_t value, uint64_t n) {
    if (n == 0) {
      return;
    }
    Add(LatencyHistogram::SlotFor(value), n);
    count_ += n;
    sum_ += static_cast<double>(value) * static_cast<double>(n);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  void Merge(const DenseModel& other) {
    const DenseModel copy = other;  // self-merge reads the pre-merge counts
    for (int s = 0; s < LatencyHistogram::kNumSlots; ++s) {
      Add(s, copy.slots_[s]);
    }
    count_ += copy.count_;
    sum_ += copy.sum_;
    min_ = std::min(min_, copy.min_);
    max_ = std::max(max_, copy.max_);
  }

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  uint64_t max() const { return max_; }
  double sum() const { return sum_; }

  uint64_t Percentile(double p) const {
    if (count_ == 0) {
      return 0;
    }
    if (p <= 0.0) {
      return min();
    }
    const double want = std::ceil(p * static_cast<double>(count_));
    const uint64_t rank =
        std::min(count_, static_cast<uint64_t>(std::max(1.0, want)));
    uint64_t cum = 0;
    for (int s = 0; s < LatencyHistogram::kNumSlots; ++s) {
      cum += slots_[s];
      if (cum >= rank) {
        const uint64_t hi = LatencyHistogram::SlotLowerBound(s) +
                            LatencyHistogram::SlotWidth(s) - 1;
        return std::clamp(hi, min(), max_);
      }
    }
    return max_;
  }

  using Bucket = std::tuple<uint64_t, uint64_t, uint64_t>;
  std::vector<Bucket> Buckets() const {
    std::vector<Bucket> out;
    for (int s = 0; s < LatencyHistogram::kNumSlots; ++s) {
      if (slots_[s] != 0) {
        out.emplace_back(LatencyHistogram::SlotLowerBound(s),
                         LatencyHistogram::SlotWidth(s), slots_[s]);
      }
    }
    return out;
  }

 private:
  void Add(int slot, uint64_t n) {
    slots_[slot] = std::min<uint64_t>(slots_[slot] + n, UINT32_MAX);
  }

  std::array<uint64_t, LatencyHistogram::kNumSlots> slots_{};
  uint64_t count_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  double sum_ = 0.0;
};

void ExpectMatches(const LatencyHistogram& h, const DenseModel& m,
                   const char* where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(h.count(), m.count());
  EXPECT_EQ(h.min(), m.min());
  EXPECT_EQ(h.max(), m.max());
  EXPECT_EQ(h.sum(), m.sum());
  for (double p : {0.0, 1e-6, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.Percentile(p), m.Percentile(p)) << "p=" << p;
  }
  std::vector<DenseModel::Bucket> buckets;
  h.ForEachBucket([&](uint64_t lo, uint64_t width, uint64_t count) {
    buckets.emplace_back(lo, width, count);
  });
  EXPECT_EQ(buckets, m.Buckets());
}

// Records into both: values in every octave in random order, values above
// kMaxValue, and a few RecordN batches near UINT32_MAX that saturate slots.
void RecordMix(Rng& rng, int samples, LatencyHistogram& h, DenseModel& m) {
  for (int i = 0; i < samples; ++i) {
    uint64_t value;
    uint64_t n = 1;
    switch (rng.NextU64(8)) {
      case 0:  // far beyond the top bucket
        value = LatencyHistogram::kMaxValue + rng.NextU64(1ULL << 50);
        break;
      case 1:  // a batch that can saturate a slot
        value = rng.NextU64(1ULL << (1 + rng.NextU64(41)));
        n = UINT32_MAX - rng.NextU64(4);
        break;
      case 2:
        value = 0;
        n = rng.NextU64(3);  // includes the n == 0 no-op
        break;
      default:  // log-uniform over every octave
        value = rng.NextU64(1ULL << (1 + rng.NextU64(41)));
        n = 1 + rng.NextU64(3);
        break;
    }
    h.RecordN(value, n);
    m.RecordN(value, n);
  }
}

TEST(LatencyHistogramTest, MatchesDenseModel) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    LatencyHistogram h;
    DenseModel m;
    ExpectMatches(h, m, "empty");
    RecordMix(rng, 50, h, m);
    ExpectMatches(h, m, "recorded");

    // Every octave, one value each, lowest to highest.
    for (int c = 0; c < LatencyHistogram::kNumChunks; ++c) {
      const uint64_t v = LatencyHistogram::SlotLowerBound(
          c * static_cast<int>(LatencyHistogram::kSubBuckets));
      h.Record(v);
      m.RecordN(v, 1);
    }
    ExpectMatches(h, m, "every octave");

    LatencyHistogram into_empty;
    DenseModel into_empty_m;
    into_empty.Merge(h);
    into_empty_m.Merge(m);
    ExpectMatches(into_empty, into_empty_m, "merge into empty");

    // Disjoint: low octaves only vs high octaves only.
    LatencyHistogram low, high;
    DenseModel low_m, high_m;
    for (int i = 0; i < 200; ++i) {
      const uint64_t lv = rng.NextU64(1 << 12);
      const uint64_t hv = (1ULL << 30) + rng.NextU64(1ULL << 38);
      low.Record(lv);
      low_m.RecordN(lv, 1);
      high.Record(hv);
      high_m.RecordN(hv, 1);
    }
    high.Merge(low);
    high_m.Merge(low_m);
    ExpectMatches(high, high_m, "disjoint merge");

    LatencyHistogram overlap;
    DenseModel overlap_m;
    RecordMix(rng, 40, overlap, overlap_m);
    overlap.Merge(h);
    overlap_m.Merge(m);
    ExpectMatches(overlap, overlap_m, "overlapping merge");

    h.Merge(h);
    m.Merge(m);
    ExpectMatches(h, m, "self merge");

    const LatencyHistogram copy = h;
    ExpectMatches(copy, m, "copy");
    LatencyHistogram assigned;
    assigned.Record(7);
    assigned = copy;
    ExpectMatches(assigned, m, "copy assignment");
    LatencyHistogram moved = std::move(assigned);
    ExpectMatches(moved, m, "move");
    ExpectMatches(assigned, DenseModel(), "moved-from");
    LatencyHistogram move_assigned;
    move_assigned.Record(1ULL << 20);
    move_assigned = std::move(moved);
    ExpectMatches(move_assigned, m, "move assignment");

    h.Reset();
    m = DenseModel();
    ExpectMatches(h, m, "reset");
    RecordMix(rng, 50, h, m);
    ExpectMatches(h, m, "reuse after reset");
  }
}

}  // namespace
}  // namespace libra::obs
