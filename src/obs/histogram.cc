#include "src/obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace libra::obs {

int LatencyHistogram::SlotFor(uint64_t value) {
  if (value > kMaxValue) {
    value = kMaxValue;
  }
  // Values below kSubBuckets sit in the first (unit-width) octave; for the
  // rest, the octave is the position of the highest set bit.
  const int bits = value < kSubBuckets ? kSubBucketBits + 1
                                       : std::bit_width(value);
  const int shift = bits - 1 - kSubBucketBits;
  return static_cast<int>(kSubBuckets) * shift +
         static_cast<int>(value >> shift);
}

uint64_t LatencyHistogram::SlotLowerBound(int slot) {
  const int shift =
      slot < static_cast<int>(2 * kSubBuckets) ? 0 : slot / kSubBuckets - 1;
  const uint64_t sub = static_cast<uint64_t>(slot) - kSubBuckets * shift;
  return sub << shift;
}

uint64_t LatencyHistogram::SlotWidth(int slot) {
  const int shift =
      slot < static_cast<int>(2 * kSubBuckets) ? 0 : slot / kSubBuckets - 1;
  return 1ULL << shift;
}

void LatencyHistogram::InsertChunk(int c, size_t offset) {
  // Grow by exactly one chunk: a histogram holds few octaves, and doubling
  // growth would leave most of its allocation as slack.
  chunks_.reserve(chunks_.size() + kSubBuckets);
  chunks_.insert(chunks_.begin() + static_cast<ptrdiff_t>(offset),
                 kSubBuckets, 0);
  present_ |= 1ULL << c;
}

void LatencyHistogram::RecordN(uint64_t value, uint64_t n) {
  if (n == 0) {
    return;
  }
  const int s = SlotFor(value);
  uint32_t& slot =
      MutableChunk(s >> kSubBucketBits)[s & static_cast<int>(kSubBuckets - 1)];
  slot = static_cast<uint32_t>(
      std::min<uint64_t>(static_cast<uint64_t>(slot) + n, UINT32_MAX));
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

uint64_t LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  if (p <= 0.0) {
    return min();
  }
  const double want = std::ceil(p * static_cast<double>(count_));
  const uint64_t rank =
      std::min(count_, static_cast<uint64_t>(std::max(1.0, want)));
  // Absent chunks hold only zeros, so walking the present ones in order
  // reaches the same slot as a walk over every slot.
  uint64_t cum = 0;
  const uint32_t* chunk = chunks_.data();
  for (uint64_t bits = present_; bits != 0; bits &= bits - 1) {
    const int first = static_cast<int>(kSubBuckets) * std::countr_zero(bits);
    for (int i = 0; i < static_cast<int>(kSubBuckets); ++i) {
      cum += chunk[i];
      if (cum >= rank) {
        const uint64_t hi =
            SlotLowerBound(first + i) + SlotWidth(first + i) - 1;
        return std::clamp(hi, min(), max_);
      }
    }
    chunk += kSubBuckets;
  }
  return max_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  // Inserting chunks into this histogram never touches `other`'s storage:
  // on self-merge every chunk is already present.
  chunks_.reserve(kSubBuckets * PopCount(present_ | other.present_));
  for (uint64_t bits = other.present_; bits != 0; bits &= bits - 1) {
    const int c = std::countr_zero(bits);
    uint32_t* dst = MutableChunk(c);
    const uint32_t* src = other.chunks_.data() + other.ChunkOffset(c);
    for (size_t i = 0; i < kSubBuckets; ++i) {
      dst[i] = static_cast<uint32_t>(std::min<uint64_t>(
          static_cast<uint64_t>(dst[i]) + src[i], UINT32_MAX));
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::Reset() {
  count_ = 0;
  sum_ = 0.0;
  min_ = UINT64_MAX;
  max_ = 0;
  present_ = 0;
  chunks_ = std::vector<uint32_t>();
}

void LatencyHistogram::Take(LatencyHistogram& other) {
  count_ = other.count_;
  min_ = other.min_;
  max_ = other.max_;
  sum_ = other.sum_;
  present_ = other.present_;
  chunks_ = std::move(other.chunks_);
  other.Reset();
}

}  // namespace libra::obs
