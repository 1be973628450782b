// Flash translation layer: page-mapped, log-structured, with greedy garbage
// collection — the mechanism behind the paper's observation (§3.2) that
// small random writes incur a heavy read-merge-write penalty while large
// sequential writes stay cheap.
//
// Physical blocks are partitioned evenly across dies; each die maintains its
// own append point (active block) and free-block pool. Host writes are
// chunked round-robin across dies. When a die's free pool drops below the
// low watermark, greedy GC relocates the valid pages of minimum-valid
// victim blocks and erases them until the high watermark is restored.
//
// The FTL itself is time-free: it reports *work* (placements, pages moved,
// erases); SsdDevice converts work into die-busy time. It is copyable: a
// copy carries every map entry, block count, append point and counter, so
// it continues exactly as the original would (calibration preconditions one
// FTL and probes copies of it).

#ifndef LIBRA_SRC_SSD_FTL_H_
#define LIBRA_SRC_SSD_FTL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/ssd/profile.h"

namespace libra::ssd {

// Host-write pages assigned to one die.
struct DiePlacement {
  int die = 0;
  uint32_t pages = 0;
};

// Garbage-collection work performed on one die as a side effect of a write.
struct GcWork {
  int die = 0;
  uint32_t pages_moved = 0;
  uint32_t erases = 0;
};

struct FtlWriteResult {
  std::vector<DiePlacement> placements;
  std::vector<GcWork> gc;
};

class Ftl {
 public:
  // Aborts (in every build) when the profile leaves fewer than 2 spare
  // blocks per die beyond what its logical capacity needs.
  explicit Ftl(const DeviceProfile& profile);

  // Maps logical bytes [0, bytes) with block-sized sequential writes, which
  // keep preconditioning free of write amplification — as one would
  // precondition a physical SSD before benchmarking it.
  void Prefill(uint64_t bytes);

  // Records a host write of `npages` logical pages starting at `first_lpn`
  // (wrapped modulo the logical page count). Returns the per-die placement
  // and any GC work triggered.
  //
  // `die_preference` (optional, a permutation of die indices) ranks dies by
  // desirability — the device passes dies ordered by earliest availability,
  // modeling firmware that programs whichever die is ready. Dies short on
  // free space are deprioritized regardless of preference so the per-die
  // partitions stay balanced.
  FtlWriteResult Write(uint64_t first_lpn, uint32_t npages,
                       const std::vector<int>* die_preference = nullptr);

  // Invalidates mapped pages in [first_lpn, first_lpn + npages) — the
  // filesystem's TRIM on file deletion. Without this, deleted LSM data files
  // would count as live and GC would thrash.
  void Trim(uint64_t first_lpn, uint32_t npages);

  // Write amplification since construction: (host + relocated) / host pages.
  double write_amp() const;

  uint64_t host_pages_written() const { return host_pages_written_; }
  uint64_t gc_pages_moved() const { return gc_pages_moved_; }
  uint64_t blocks_erased() const { return blocks_erased_; }
  uint64_t logical_pages() const { return logical_pages_; }
  const DeviceProfile& profile() const { return profile_; }

  // Free blocks currently available on `die` (testing / introspection).
  int free_blocks(int die) const;

  // Bytes held by the allocated chunks of both maps (the chunk pointer
  // vectors, 8 bytes per chunk slot, are not counted).
  size_t map_bytes() const { return page_map_.bytes() + rev_map_.bytes(); }

 private:
  static constexpr uint32_t kUnmapped = UINT32_MAX;

  // A fixed-length uint32_t array that reads kUnmapped wherever it was never
  // written. Entries live in chunks of kChunkEntries, each allocated (and
  // filled with kUnmapped) on its first store of a mapped value; storing
  // kUnmapped into an absent chunk allocates nothing. Chunks are never
  // freed: a device's written ranges only grow, and they stay compact
  // because SimFs reuses the most recently freed extent first and each die
  // hands out its low block indices first.
  class DemandMap {
   public:
    static constexpr size_t kChunkEntries = 4096;

    explicit DemandMap(uint64_t size)
        : chunks_((size + kChunkEntries - 1) / kChunkEntries) {}
    // Deep copy of the allocated chunks only; absent chunks stay absent.
    DemandMap(const DemandMap& other);
    DemandMap(DemandMap&&) = default;

    uint32_t Get(uint64_t i) const {
      const uint32_t* chunk = chunks_[i / kChunkEntries].get();
      return chunk != nullptr ? chunk[i % kChunkEntries] : kUnmapped;
    }
    void Set(uint64_t i, uint32_t value);
    size_t bytes() const {
      return allocated_ * kChunkEntries * sizeof(uint32_t);
    }

   private:
    std::vector<std::unique_ptr<uint32_t[]>> chunks_;
    size_t allocated_ = 0;
  };

  struct Die {
    std::vector<uint32_t> free_blocks;  // block indices (die-global space)
    uint32_t active_block = kUnmapped;
    uint32_t active_slot = 0;  // next free page slot within active block
  };

  // Writes one logical page to `die`, updating maps. Returns false if the
  // die is out of space even after GC (callers should never see this with
  // sane watermarks).
  void WritePageToDie(int die_idx, uint64_t lpn);

  // Relocates one valid page during GC (same die, bypasses watermark checks).
  void RelocatePage(int die_idx, uint64_t lpn);

  // Ensures the die has an active block with a free slot.
  void EnsureActiveBlock(int die_idx);

  // Runs GC on a die until the high watermark is met; records work in `out`.
  void CollectGarbage(int die_idx, std::vector<GcWork>& out);

  void InvalidatePpn(uint32_t ppn);

  // By value: callers may construct an Ftl from a temporary profile.
  const DeviceProfile profile_;
  uint64_t logical_pages_;
  uint32_t total_blocks_;
  uint32_t blocks_per_die_;
  // Effective GC watermarks: the profile's values clamped to the spare
  // blocks actually available per die, so tightly-provisioned devices make
  // steady forward progress instead of chasing an unreachable target.
  int low_watermark_ = 1;
  int high_watermark_ = 2;

  enum class BlockState : uint8_t { kFree, kActive, kUsed };

  DemandMap page_map_;                 // lpn -> ppn (kUnmapped if unwritten)
  DemandMap rev_map_;                  // ppn -> lpn (kUnmapped if stale/free)
  std::vector<uint16_t> block_valid_;  // valid page count per block
  std::vector<BlockState> block_state_;
  std::vector<Die> dies_;
  int next_die_ = 0;  // round-robin cursor for chunked placement

  uint64_t host_pages_written_ = 0;
  uint64_t gc_pages_moved_ = 0;
  uint64_t blocks_erased_ = 0;
};

}  // namespace libra::ssd

#endif  // LIBRA_SRC_SSD_FTL_H_
