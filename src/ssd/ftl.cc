#include "src/ssd/ftl.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <tuple>

namespace libra::ssd {
namespace {

// Whole physical blocks, rounded down to a multiple of the die count.
uint32_t UsableBlocks(const DeviceProfile& profile) {
  const uint32_t blocks =
      static_cast<uint32_t>(profile.total_pages() / profile.pages_per_block);
  return blocks / profile.num_dies * profile.num_dies;
}

}  // namespace

void Ftl::DemandMap::Set(uint64_t i, uint32_t value) {
  std::unique_ptr<uint32_t[]>& chunk = chunks_[i / kChunkEntries];
  if (chunk == nullptr) {
    if (value == kUnmapped) {
      return;
    }
    chunk = std::make_unique_for_overwrite<uint32_t[]>(kChunkEntries);
    std::fill_n(chunk.get(), kChunkEntries, kUnmapped);
    ++allocated_;
  }
  chunk[i % kChunkEntries] = value;
}

Ftl::DemandMap::DemandMap(const DemandMap& other)
    : chunks_(other.chunks_.size()), allocated_(other.allocated_) {
  for (size_t c = 0; c < chunks_.size(); ++c) {
    if (other.chunks_[c] != nullptr) {
      chunks_[c] = std::make_unique_for_overwrite<uint32_t[]>(kChunkEntries);
      std::copy_n(other.chunks_[c].get(), kChunkEntries, chunks_[c].get());
    }
  }
}

Ftl::Ftl(const DeviceProfile& profile)
    : profile_(profile),
      logical_pages_(profile.logical_pages()),
      total_blocks_(UsableBlocks(profile)),
      blocks_per_die_(total_blocks_ / profile.num_dies),
      page_map_(logical_pages_),
      rev_map_(static_cast<uint64_t>(total_blocks_) * profile.pages_per_block) {
  assert(blocks_per_die_ > static_cast<uint32_t>(profile.gc_high_watermark_blocks + 2));
  block_valid_.assign(total_blocks_, 0);
  block_state_.assign(total_blocks_, BlockState::kFree);

  // Spare blocks per die beyond what live data needs; GC can never push the
  // free count above this, so clamp the watermarks accordingly.
  const uint64_t live_blocks_per_die =
      (logical_pages_ / profile.pages_per_block + profile.num_dies - 1) /
      profile.num_dies;
  const int spare = static_cast<int>(
      static_cast<int64_t>(blocks_per_die_) -
      static_cast<int64_t>(live_blocks_per_die));
  if (spare < 2) {
    // Checked in every build: the watermark clamps below need a non-empty
    // range, and GC cannot make progress without spare blocks.
    std::fprintf(stderr,
                 "Ftl: profile '%s' leaves %d spare blocks per die (%u blocks, "
                 "%llu needed for live data); at least 2 are required\n",
                 profile.name.c_str(), spare, blocks_per_die_,
                 static_cast<unsigned long long>(live_blocks_per_die));
    std::abort();
  }
  low_watermark_ = std::clamp(profile.gc_low_watermark_blocks, 1, spare / 2);
  high_watermark_ =
      std::clamp(profile.gc_high_watermark_blocks, low_watermark_ + 1,
                 std::max(low_watermark_ + 1, 2 * spare / 3));

  dies_.resize(profile.num_dies);
  for (int d = 0; d < profile.num_dies; ++d) {
    auto& die = dies_[d];
    die.free_blocks.reserve(blocks_per_die_);
    // Push in reverse so pop_back allocates low block indices first.
    for (uint32_t b = blocks_per_die_; b > 0; --b) {
      die.free_blocks.push_back(static_cast<uint32_t>(d) * blocks_per_die_ + b - 1);
    }
  }
}

void Ftl::Prefill(uint64_t bytes) {
  const uint64_t pages = bytes / profile_.page_bytes;
  const uint32_t chunk = profile_.pages_per_block;
  for (uint64_t p = 0; p < pages; p += chunk) {
    Write(p, static_cast<uint32_t>(std::min<uint64_t>(chunk, pages - p)));
  }
}

int Ftl::free_blocks(int die) const {
  return static_cast<int>(dies_[die].free_blocks.size());
}

void Ftl::InvalidatePpn(uint32_t ppn) {
  const uint32_t block = ppn / profile_.pages_per_block;
  assert(block_valid_[block] > 0);
  --block_valid_[block];
  rev_map_.Set(ppn, kUnmapped);
}

void Ftl::EnsureActiveBlock(int die_idx) {
  Die& die = dies_[die_idx];
  if (die.active_block != kUnmapped &&
      die.active_slot < profile_.pages_per_block) {
    return;
  }
  if (die.active_block != kUnmapped) {
    block_state_[die.active_block] = BlockState::kUsed;
  }
  if (die.free_blocks.empty()) {
    // Emergency path: erase a fully-stale block in place (requires no
    // relocation). Reachable only under extreme space pressure between GC
    // passes.
    const uint32_t die_idx = static_cast<uint32_t>(&die - dies_.data());
    const uint32_t first = die_idx * blocks_per_die_;
    for (uint32_t b = first; b < first + blocks_per_die_; ++b) {
      if (block_state_[b] == BlockState::kUsed && block_valid_[b] == 0) {
        block_state_[b] = BlockState::kFree;
        die.free_blocks.push_back(b);
        ++blocks_erased_;
        break;
      }
    }
  }
  assert(!die.free_blocks.empty() && "FTL out of space: watermarks misconfigured");
  die.active_block = die.free_blocks.back();
  die.free_blocks.pop_back();
  block_state_[die.active_block] = BlockState::kActive;
  die.active_slot = 0;
}

void Ftl::WritePageToDie(int die_idx, uint64_t lpn) {
  // Invalidate the previous location, if any.
  const uint32_t old_ppn = page_map_.Get(lpn);
  if (old_ppn != kUnmapped) {
    InvalidatePpn(old_ppn);
  }
  EnsureActiveBlock(die_idx);
  Die& die = dies_[die_idx];
  const uint32_t ppn =
      die.active_block * profile_.pages_per_block + die.active_slot;
  ++die.active_slot;
  page_map_.Set(lpn, ppn);
  rev_map_.Set(ppn, static_cast<uint32_t>(lpn));
  ++block_valid_[die.active_block];
}

void Ftl::RelocatePage(int die_idx, uint64_t lpn) { WritePageToDie(die_idx, lpn); }

void Ftl::CollectGarbage(int die_idx, std::vector<GcWork>& out) {
  Die& die = dies_[die_idx];
  if (static_cast<int>(die.free_blocks.size()) > low_watermark_) {
    return;
  }
  GcWork work;
  work.die = die_idx;
  // Bound the per-write GC burst: real FTLs incrementally reclaim rather
  // than stalling one host write arbitrarily long.
  int victims_left = 2 * high_watermark_;
  while (static_cast<int>(die.free_blocks.size()) < high_watermark_ &&
         victims_left-- > 0) {
    // Greedy victim: the die's used (sealed) block with the fewest valid
    // pages. Full-of-valid blocks yield nothing and are never picked.
    const uint32_t first = static_cast<uint32_t>(die_idx) * blocks_per_die_;
    uint32_t victim = kUnmapped;
    uint16_t best_valid = profile_.pages_per_block;
    for (uint32_t b = first; b < first + blocks_per_die_; ++b) {
      if (block_state_[b] != BlockState::kUsed) {
        continue;
      }
      if (block_valid_[b] < best_valid) {
        best_valid = block_valid_[b];
        victim = b;
        if (best_valid == 0) {
          break;
        }
      }
    }
    if (victim == kUnmapped) {
      break;  // nothing reclaimable; device is genuinely full of valid data
    }
    // Relocate valid pages to the die's append point.
    const uint32_t base = victim * profile_.pages_per_block;
    for (uint32_t s = 0; s < profile_.pages_per_block; ++s) {
      const uint32_t lpn = rev_map_.Get(base + s);
      if (lpn != kUnmapped) {
        RelocatePage(die_idx, lpn);
        ++work.pages_moved;
        ++gc_pages_moved_;
      }
    }
    assert(block_valid_[victim] == 0);
    block_state_[victim] = BlockState::kFree;
    die.free_blocks.push_back(victim);
    ++work.erases;
    ++blocks_erased_;
  }
  if (work.pages_moved > 0 || work.erases > 0) {
    out.push_back(work);
  }
}

FtlWriteResult Ftl::Write(uint64_t first_lpn, uint32_t npages,
                          const std::vector<int>* die_preference) {
  assert(npages > 0);
  FtlWriteResult result;

  // Chunked placement: D dies get contiguous runs of pages, at least one
  // stripe per die so command latency is amortized per chunk. Die choice
  // follows the caller's availability preference (firmware programs ready
  // dies first), but dies short on free space are pushed to the back:
  // pages never migrate across dies, so a space-oblivious policy would
  // slowly overfill some dies until GC had nothing reclaimable there.
  const int num_dies = profile_.num_dies;
  const uint64_t stripes =
      (npages + profile_.stripe_pages - 1) / profile_.stripe_pages;
  const int d_used = static_cast<int>(
      std::min<uint64_t>(stripes, static_cast<uint64_t>(num_dies)));
  const uint32_t base_chunk = npages / d_used;
  const uint32_t remainder = npages % d_used;

  // Space needed per die this write (upper bound), plus one block of slack.
  const uint64_t needed_pages =
      base_chunk + 1 + profile_.pages_per_block;
  // Sort key: (space-starved?, preference position or inverse free space,
  // rotation tie-break), die index.
  std::vector<std::pair<std::tuple<int, uint64_t, int>, int>> ranked;
  ranked.reserve(num_dies);
  for (int d = 0; d < num_dies; ++d) {
    const Die& die = dies_[d];
    uint64_t free_pages = die.free_blocks.size() * profile_.pages_per_block;
    if (die.active_block != kUnmapped) {
      free_pages += profile_.pages_per_block - die.active_slot;
    }
    const int starved = free_pages < needed_pages ? 1 : 0;
    const int rot = (d - next_die_ + num_dies) % num_dies;
    uint64_t primary;
    if (die_preference != nullptr) {
      uint64_t pos = static_cast<uint64_t>(num_dies);
      for (int i = 0; i < num_dies; ++i) {
        if ((*die_preference)[i] == d) {
          pos = static_cast<uint64_t>(i);
          break;
        }
      }
      primary = pos;
    } else {
      primary = UINT64_MAX - free_pages;  // most-free first
    }
    ranked.emplace_back(std::make_tuple(starved, primary, rot), d);
  }
  std::sort(ranked.begin(), ranked.end());

  uint64_t lpn = first_lpn % logical_pages_;
  for (int i = 0; i < d_used; ++i) {
    const int die_idx = ranked[i].second;
    const uint32_t chunk = base_chunk + (static_cast<uint32_t>(i) < remainder ? 1 : 0);
    if (chunk == 0) {
      continue;
    }
    // Reclaim ahead of the chunk so relocation always has room.
    CollectGarbage(die_idx, result.gc);
    for (uint32_t p = 0; p < chunk; ++p) {
      WritePageToDie(die_idx, lpn);
      lpn = (lpn + 1) % logical_pages_;
    }
    host_pages_written_ += chunk;
    result.placements.push_back(DiePlacement{die_idx, chunk});
  }
  next_die_ = (next_die_ + 1) % num_dies;
  return result;
}

void Ftl::Trim(uint64_t first_lpn, uint32_t npages) {
  uint64_t lpn = first_lpn % logical_pages_;
  for (uint32_t p = 0; p < npages; ++p) {
    const uint32_t ppn = page_map_.Get(lpn);
    if (ppn != kUnmapped) {
      InvalidatePpn(ppn);
      page_map_.Set(lpn, kUnmapped);
    }
    lpn = (lpn + 1) % logical_pages_;
  }
}

double Ftl::write_amp() const {
  if (host_pages_written_ == 0) {
    return 1.0;
  }
  return static_cast<double>(host_pages_written_ + gc_pages_moved_) /
         static_cast<double>(host_pages_written_);
}

}  // namespace libra::ssd
