// Log-bucketed latency histogram (HdrHistogram-style).
//
// Values (virtual-time nanoseconds, but any non-negative integer works) are
// binned into power-of-two octaves, each subdivided into 2^kSubBucketBits
// linear sub-buckets, so relative error is bounded by 1/2^kSubBucketBits
// (~3%) across the whole range while values below 2*kSubBuckets are recorded
// exactly.
//
// Storage is sparse by octave: the 32 slots of an octave ("chunk") exist
// only once a sample landed in it, packed in chunk order behind a 64-bit
// presence mask. A latency series typically touches 1-3 of the 37 octaves,
// so an empty histogram is 64 bytes and a busy one a few hundred — which is
// what lets every (tenant, app request, internal op) cell of every
// partition keep its own histograms. Record() is a handful of ALU ops plus
// a popcount; it allocates only the first time an octave is hit.
//
// Percentile queries scan the cumulative counts and report the bucket's
// upper bound, clamped into [min, max] so Percentile(0) and Percentile(1)
// are exact. Histograms merge by bucket-wise addition (same geometry by
// construction), which is how per-class histograms fold into per-tenant
// aggregates for snapshots.

#ifndef LIBRA_SRC_OBS_HISTOGRAM_H_
#define LIBRA_SRC_OBS_HISTOGRAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace libra::obs {

class LatencyHistogram {
 public:
  // 32 sub-buckets per octave: <= 3.2% relative bucket width.
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = 1ULL << kSubBucketBits;
  // Largest bucket shift: values up to kMaxValue land in a real bucket;
  // larger values saturate into the top bucket (max() stays exact).
  static constexpr int kMaxShift = 35;
  static constexpr uint64_t kMaxValue =
      (2 * kSubBuckets << kMaxShift) - 1;  // ~2^41 ns =~ 36 simulated minutes
  static constexpr int kNumChunks = kMaxShift + 2;  // one per octave
  static constexpr int kNumSlots = static_cast<int>(kSubBuckets) * kNumChunks;
  static_assert(kNumChunks <= 64, "the presence mask is one uint64_t");

  // Slot index for a value (saturating at the top bucket).
  static int SlotFor(uint64_t value);
  // Smallest value mapping to `slot`.
  static uint64_t SlotLowerBound(int slot);
  // Number of distinct values mapping to `slot` (1 below 2*kSubBuckets).
  static uint64_t SlotWidth(int slot);

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = default;
  LatencyHistogram& operator=(const LatencyHistogram&) = default;
  // Moves leave the source empty (a plain member-wise move would keep its
  // presence mask over a moved-out chunk vector).
  LatencyHistogram(LatencyHistogram&& other) noexcept { Take(other); }
  LatencyHistogram& operator=(LatencyHistogram&& other) noexcept {
    if (this != &other) {
      Take(other);
    }
    return *this;
  }

  void Record(uint64_t value) { RecordN(value, 1); }
  void RecordN(uint64_t value, uint64_t n);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  uint64_t max() const { return max_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  // Value at quantile p in [0, 1]: upper bound of the bucket holding the
  // ceil(p * count)-th sample, clamped to [min, max]. 0 when empty.
  // Monotonic in p by construction.
  uint64_t Percentile(double p) const;

  // Self-merge doubles every count.
  void Merge(const LatencyHistogram& other);
  // Clears the samples and frees the chunks.
  void Reset();

  // Iterates non-empty buckets in value order: fn(lower_bound, width, count).
  template <typename Fn>
  void ForEachBucket(Fn&& fn) const {
    const uint32_t* chunk = chunks_.data();
    for (uint64_t bits = present_; bits != 0; bits &= bits - 1) {
      const int first = static_cast<int>(kSubBuckets) * std::countr_zero(bits);
      for (int i = 0; i < static_cast<int>(kSubBuckets); ++i) {
        if (chunk[i] != 0) {
          fn(SlotLowerBound(first + i), SlotWidth(first + i), chunk[i]);
        }
      }
      chunk += kSubBuckets;
    }
  }

 private:
  // Offset in chunks_ of chunk `c`'s first slot (where it is, or would be
  // inserted): the present chunks below it come first.
  size_t ChunkOffset(int c) const {
    return kSubBuckets * PopCount(present_ & ((1ULL << c) - 1));
  }
  // std::popcount is a libgcc call on baseline x86-64 (no POPCNT
  // instruction); this branch-free form inlines into Record.
  static constexpr size_t PopCount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<size_t>((x * 0x0101010101010101ULL) >> 56);
  }
  // Chunk `c`'s slots, inserting 32 zero slots if it is absent.
  uint32_t* MutableChunk(int c) {
    const size_t offset = ChunkOffset(c);
    if ((present_ >> c & 1) == 0) [[unlikely]] {
      InsertChunk(c, offset);
    }
    return chunks_.data() + offset;
  }
  void InsertChunk(int c, size_t offset);
  void Take(LatencyHistogram& other);

  uint64_t count_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  double sum_ = 0.0;
  // Bit c set <=> chunk c (slots [32c, 32c + 32)) is stored. 32-bit slot
  // counters saturate at UINT32_MAX (~4.3e9 samples in one bucket;
  // unreachable in practice) while count_/sum_ stay exact.
  uint64_t present_ = 0;
  std::vector<uint32_t> chunks_;  // present chunks, in chunk order
};

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_HISTOGRAM_H_
