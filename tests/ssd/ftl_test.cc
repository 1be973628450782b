#include "src/ssd/ftl.h"

#include <gtest/gtest.h>

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

TEST(FtlDeathTest, RejectsProfileWithoutTwoSpareBlocksPerDie) {
  DeviceProfile p = Intel320Profile();
  // 7% overprovisioning of 64 MiB: 27 blocks per die, 26 of them needed
  // for live data, so one spare block per die.
  p.capacity_bytes = 64ULL * kMiB;
  EXPECT_DEATH(Ftl ftl(p), "1 spare blocks per die");
}

}  // namespace
}  // namespace libra::ssd
