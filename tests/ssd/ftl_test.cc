#include "src/ssd/ftl.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_loop.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::ssd {
namespace {

DeviceProfile SmallProfile() {
  DeviceProfile p = Intel320Profile();
  p.capacity_bytes = 64ULL * kMiB;  // small device for fast GC exercise
  p.overprovision = 0.10;
  return p;
}

TEST(FtlTest, PlacementCoversAllPages) {
  DeviceProfile p = SmallProfile();
  Ftl ftl(p);
  const FtlWriteResult r = ftl.Write(0, 40);
  uint32_t total = 0;
  for (const auto& pl : r.placements) {
    EXPECT_GE(pl.die, 0);
    EXPECT_LT(pl.die, p.num_dies);
    total += pl.pages;
  }
  EXPECT_EQ(total, 40u);
  EXPECT_EQ(ftl.host_pages_written(), 40u);
}

TEST(FtlTest, SmallWriteUsesOneDie) {
  Ftl ftl(SmallProfile());
  const FtlWriteResult r = ftl.Write(0, 1);
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_EQ(r.placements[0].pages, 1u);
}

TEST(FtlTest, LargeWriteSpreadsAcrossDies) {
  DeviceProfile p = SmallProfile();
  Ftl ftl(p);
  // 64 pages = 16 stripes of 4 pages -> capped at num_dies dies.
  const FtlWriteResult r = ftl.Write(0, 64);
  EXPECT_EQ(r.placements.size(), static_cast<size_t>(p.num_dies));
}

TEST(FtlTest, MediumWriteUsesStripeGranularity) {
  DeviceProfile p = SmallProfile();
  Ftl ftl(p);
  // 8 pages = 2 stripes -> 2 dies, not 8.
  const FtlWriteResult r = ftl.Write(0, 8);
  EXPECT_EQ(r.placements.size(), 2u);
}

TEST(FtlTest, RoundRobinRotatesDies) {
  Ftl ftl(SmallProfile());
  const int die0 = ftl.Write(0, 1).placements[0].die;
  const int die1 = ftl.Write(1, 1).placements[0].die;
  EXPECT_NE(die0, die1);
}

TEST(FtlTest, NoGcWhileSpaceAmple) {
  Ftl ftl(SmallProfile());
  const FtlWriteResult r = ftl.Write(0, 256);
  EXPECT_TRUE(r.gc.empty());
  EXPECT_EQ(ftl.gc_pages_moved(), 0u);
  EXPECT_DOUBLE_EQ(ftl.write_amp(), 1.0);
}

TEST(FtlTest, OverwriteTriggersGcEventually) {
  DeviceProfile p = SmallProfile();
  Ftl ftl(p);
  // Overwrite the same half of the logical space repeatedly: stale pages
  // accumulate and GC must kick in once free blocks run low.
  const uint64_t half = p.logical_pages() / 2;
  for (int round = 0; round < 8; ++round) {
    for (uint64_t lpn = 0; lpn < half; lpn += 32) {
      ftl.Write(lpn, 32);
    }
  }
  EXPECT_GT(ftl.blocks_erased(), 0u);
  EXPECT_GE(ftl.write_amp(), 1.0);
}

TEST(FtlTest, SequentialOverwriteWriteAmpBounded) {
  DeviceProfile p = SmallProfile();
  Ftl ftl(p);
  // Whole-block sequential overwrites create mostly-stale victims. The
  // device here runs at ~91% utilization (logical/physical) and striping
  // scatters each logical block across dies, so write amp is not 1.0 — but
  // it must stay bounded and GC must make forward progress.
  const uint64_t pages = p.logical_pages();
  for (int round = 0; round < 6; ++round) {
    for (uint64_t lpn = 0; lpn + p.pages_per_block <= pages;
         lpn += p.pages_per_block) {
      ftl.Write(lpn, p.pages_per_block);
    }
  }
  EXPECT_GT(ftl.blocks_erased(), 0u);
  EXPECT_LT(ftl.write_amp(), 5.0);
}

TEST(FtlTest, RandomSmallOverwriteHasHigherWriteAmpThanSequential) {
  DeviceProfile p = SmallProfile();
  Ftl seq_ftl(p);
  Ftl rand_ftl(p);
  const uint64_t pages = p.logical_pages();
  // Fill both once.
  for (uint64_t lpn = 0; lpn < pages; lpn += p.pages_per_block) {
    seq_ftl.Write(lpn, p.pages_per_block);
    rand_ftl.Write(lpn, p.pages_per_block);
  }
  // Sequential whole-block vs random single-page overwrite churn.
  uint64_t x = 12345;
  for (uint64_t i = 0; i < pages * 3; ++i) {
    if (i % p.pages_per_block == 0) {
      seq_ftl.Write((i / p.pages_per_block * p.pages_per_block) % pages,
                    p.pages_per_block);
    }
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    rand_ftl.Write((x >> 33) % pages, 1);
  }
  EXPECT_GT(rand_ftl.write_amp(), seq_ftl.write_amp());
  EXPECT_GT(rand_ftl.write_amp(), 1.15);
}

TEST(FtlTest, TrimReclaimsSpaceWithoutRelocation) {
  DeviceProfile p = SmallProfile();
  Ftl full(p);
  Ftl trimmed(p);
  const uint64_t pages = p.logical_pages();
  for (uint64_t lpn = 0; lpn < pages; lpn += p.pages_per_block) {
    full.Write(lpn, p.pages_per_block);
    trimmed.Write(lpn, p.pages_per_block);
  }
  // Trim the whole space on one FTL, then rewrite everything.
  trimmed.Trim(0, static_cast<uint32_t>(pages));
  for (uint64_t lpn = 0; lpn < pages; lpn += p.pages_per_block) {
    full.Write(lpn, p.pages_per_block);
    trimmed.Write(lpn, p.pages_per_block);
  }
  EXPECT_LE(trimmed.gc_pages_moved(), full.gc_pages_moved());
}

TEST(FtlTest, FreeBlocksStayAboveReserve) {
  DeviceProfile p = SmallProfile();
  Ftl ftl(p);
  const uint64_t pages = p.logical_pages();
  uint64_t x = 99;
  for (uint64_t i = 0; i < pages * 4; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ftl.Write((x >> 33) % pages, 1);
  }
  for (int d = 0; d < p.num_dies; ++d) {
    EXPECT_GE(ftl.free_blocks(d), 1) << "die " << d;
  }
}

TEST(FtlTest, LpnWrapsAroundLogicalSpace) {
  DeviceProfile p = SmallProfile();
  Ftl ftl(p);
  // Writing past the end wraps rather than corrupting state.
  ftl.Write(p.logical_pages() - 2, 8);
  EXPECT_EQ(ftl.host_pages_written(), 8u);
}

// One step of the seeded churn below: a trim, or a write with an optional
// die preference (the dies rotated by `pref_rot`).
struct ChurnOp {
  bool trim = false;
  uint64_t lpn = 0;
  uint32_t n = 0;
  int pref_rot = -1;  // -1: no die preference
};

// A seeded mix of random writes, hot-range overwrites, trims, wrap-around
// writes and large writes, every third with a rotated die preference. The
// ops do not depend on the FTL's state.
std::vector<ChurnOp> SeededChurn(const DeviceProfile& p, int count) {
  const uint64_t pages = p.logical_pages();
  uint64_t x = 20260214;
  auto next = [&x](uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  std::vector<ChurnOp> ops;
  for (int op = 0; op < count; ++op) {
    ChurnOp c;
    switch (next(10)) {
      case 0: case 1: case 2: case 3:  // random small write
        c.lpn = next(pages);
        c.n = static_cast<uint32_t>(1 + next(16));
        break;
      case 4: case 5:  // overwrite within a hot eighth of the space
        c.lpn = next(pages / 8);
        c.n = static_cast<uint32_t>(1 + next(64));
        break;
      case 6:  // trim (length drawn before start)
        c.trim = true;
        c.n = static_cast<uint32_t>(1 + next(128));
        c.lpn = next(pages);
        ops.push_back(c);
        continue;
      case 7: {  // wrap-around write across the end of the logical space
        const uint64_t k = 1 + next(32);
        c.lpn = pages - k;
        c.n = static_cast<uint32_t>(k + 1 + next(32));
        break;
      }
      default:  // large write
        c.lpn = next(pages);
        c.n = static_cast<uint32_t>(64 + next(192));
        break;
    }
    if (op % 3 == 0) {
      c.pref_rot = static_cast<int>(next(p.num_dies));
    }
    ops.push_back(c);
  }
  return ops;
}

// Applies `op` to `ftl`; a trim returns an empty result.
FtlWriteResult Apply(Ftl& ftl, const ChurnOp& op, int num_dies) {
  if (op.trim) {
    ftl.Trim(op.lpn, op.n);
    return {};
  }
  if (op.pref_rot < 0) {
    return ftl.Write(op.lpn, op.n);
  }
  std::vector<int> pref(num_dies);
  for (int d = 0; d < num_dies; ++d) {
    pref[d] = (d + op.pref_rot) % num_dies;
  }
  return ftl.Write(op.lpn, op.n, &pref);
}

// Pins the FTL's work counters under the seeded churn. Placement and GC
// decisions depend only on block-level state, so any change to how the
// maps are stored must reproduce these numbers exactly.
TEST(FtlTest, SeededChurnIsPinned) {
  DeviceProfile p = SmallProfile();
  Ftl ftl(p);
  std::vector<uint64_t> erases_per_die(p.num_dies, 0);
  for (const ChurnOp& op : SeededChurn(p, 6000)) {
    for (const GcWork& g : Apply(ftl, op, p.num_dies).gc) {
      erases_per_die[g.die] += g.erases;
    }
  }
  for (int d = 0; d < p.num_dies; ++d) {
    EXPECT_GT(erases_per_die[d], 0u) << "die " << d;
  }
  EXPECT_EQ(ftl.host_pages_written(), 265986u);
  EXPECT_EQ(ftl.gc_pages_moved(), 349685u);
  EXPECT_EQ(ftl.blocks_erased(), 9359u);
  EXPECT_DOUBLE_EQ(ftl.write_amp(), (265986.0 + 349685.0) / 265986.0);
  const std::vector<int> free_pinned = {1, 1, 1, 1, 1, 2, 1, 1, 1, 1};
  for (int d = 0; d < p.num_dies; ++d) {
    EXPECT_EQ(ftl.free_blocks(d), free_pinned[d]) << "die " << d;
  }
}

// Everything an FTL reports, for comparing two of them.
struct FtlState {
  uint64_t host_pages_written;
  uint64_t gc_pages_moved;
  uint64_t blocks_erased;
  size_t map_bytes;
  std::vector<int> free_blocks;
  bool operator==(const FtlState&) const = default;
};

FtlState StateOf(const Ftl& ftl, int num_dies) {
  FtlState s{ftl.host_pages_written(), ftl.gc_pages_moved(),
             ftl.blocks_erased(), ftl.map_bytes(), {}};
  for (int d = 0; d < num_dies; ++d) {
    s.free_blocks.push_back(ftl.free_blocks(d));
  }
  return s;
}

// A copy taken partway through the churn continues exactly as the original
// does (same placement and GC work for every later op, same counters), and
// writing to the copy leaves the original untouched.
TEST(FtlTest, CopyContinuesIdentically) {
  const DeviceProfile p = SmallProfile();
  const std::vector<ChurnOp> ops = SeededChurn(p, 6000);
  const size_t split = ops.size() / 2;
  Ftl original(p);
  for (size_t i = 0; i < split; ++i) {
    Apply(original, ops[i], p.num_dies);
  }
  ASSERT_GT(original.blocks_erased(), 0u) << "copy after GC has started";
  const FtlState at_copy = StateOf(original, p.num_dies);

  Ftl copy(original);
  EXPECT_EQ(StateOf(copy, p.num_dies), at_copy);
  std::vector<FtlWriteResult> copy_results;
  for (size_t i = split; i < ops.size(); ++i) {
    copy_results.push_back(Apply(copy, ops[i], p.num_dies));
  }
  EXPECT_EQ(StateOf(original, p.num_dies), at_copy);

  for (size_t i = split; i < ops.size(); ++i) {
    const FtlWriteResult r = Apply(original, ops[i], p.num_dies);
    const FtlWriteResult& c = copy_results[i - split];
    ASSERT_EQ(r.placements.size(), c.placements.size()) << "op " << i;
    for (size_t k = 0; k < r.placements.size(); ++k) {
      EXPECT_EQ(r.placements[k].die, c.placements[k].die) << "op " << i;
      EXPECT_EQ(r.placements[k].pages, c.placements[k].pages) << "op " << i;
    }
    ASSERT_EQ(r.gc.size(), c.gc.size()) << "op " << i;
    for (size_t k = 0; k < r.gc.size(); ++k) {
      EXPECT_EQ(r.gc[k].die, c.gc[k].die) << "op " << i;
      EXPECT_EQ(r.gc[k].pages_moved, c.gc[k].pages_moved) << "op " << i;
      EXPECT_EQ(r.gc[k].erases, c.gc[k].erases) << "op " << i;
    }
  }
  EXPECT_EQ(StateOf(original, p.num_dies), StateOf(copy, p.num_dies));
  EXPECT_DOUBLE_EQ(original.write_amp(), copy.write_amp());
  EXPECT_EQ(original.host_pages_written(), 265986u);
}

TEST(FtlTest, MapsAllocateOnFirstWrite) {
  constexpr size_t kChunkBytes = 4096 * sizeof(uint32_t);
  const DeviceProfile p = Intel320Profile();
  Ftl ftl(p);
  EXPECT_EQ(ftl.map_bytes(), 0u);

  // One page: one page-map chunk and one reverse-map chunk.
  ftl.Write(p.logical_pages() / 2, 1);
  EXPECT_EQ(ftl.map_bytes(), 2 * kChunkBytes);

  // Trimming pages that were never written allocates nothing.
  ftl.Trim(0, 1u << 16);
  EXPECT_EQ(ftl.map_bytes(), 2 * kChunkBytes);

  // A 1 GiB sequential precondition touches a compact range of both maps.
  sim::EventLoop loop;
  SsdDevice dev(loop, p);
  dev.Prefill(kGiB);
  EXPECT_LT(dev.ftl().map_bytes(), 2'500'000u);
}

TEST(FtlDeathTest, RejectsProfileWithoutTwoSpareBlocksPerDie) {
  DeviceProfile p = Intel320Profile();
  // 7% overprovisioning of 64 MiB: 27 blocks per die, 26 of them needed
  // for live data, so one spare block per die.
  p.capacity_bytes = 64ULL * kMiB;
  EXPECT_DEATH(Ftl ftl(p), "1 spare blocks per die");
}

}  // namespace
}  // namespace libra::ssd
