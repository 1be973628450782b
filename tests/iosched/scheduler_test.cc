#include "src/iosched/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/iosched/cost_model.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/calibration.h"
#include "src/ssd/device.h"
#include "src/ssd/ftl.h"
#include "src/ssd/profile.h"

namespace libra::iosched {
namespace {

// One shared calibration for the whole file, computed on first use (a
// parallel sweep over copies of one preconditioned FTL).
const ssd::CalibrationTable& Table() {
  static const ssd::CalibrationTable* table = [] {
    ssd::CalibrationOptions opt;
    opt.warmup = 200 * kMillisecond;
    opt.measure = 500 * kMillisecond;
    opt.working_set_bytes = 256 * kMiB;
    return new ssd::CalibrationTable(
        ssd::Calibrate(ssd::Intel320Profile(), opt));
  }();
  return *table;
}

// Every rig's device starts from a copy of one FTL prefilled over 1 GiB,
// which equals prefilling each device afresh.
const ssd::Ftl& Preconditioned() {
  static const ssd::Ftl* ftl = [] {
    auto* f = new ssd::Ftl(ssd::Intel320Profile());
    f->Prefill(1ULL * kGiB);
    return f;
  }();
  return *ftl;
}

struct Rig {
  sim::EventLoop loop;
  ssd::SsdDevice device;
  IoScheduler sched;
  Rng rng{101};

  explicit Rig(SchedulerOptions options = {})
      : device(loop, Preconditioned()),
        sched(loop, device, std::make_unique<ExactCostModel>(Table()),
              options) {}

  // Backlogged worker issuing `size`-byte ops of `type` until `end`.
  sim::Task<void> Worker(TenantId tenant, ssd::IoType type, uint32_t size,
                         SimTime end) {
    while (loop.Now() < end) {
      const uint64_t slots = (1ULL * kGiB) / size;
      const uint64_t offset = rng.NextU64(slots) * size;
      IoTag tag{.tenant = tenant,
                .app = type == ssd::IoType::kRead ? AppRequest::kGet
                                                  : AppRequest::kPut};
      if (type == ssd::IoType::kRead) {
        co_await sched.Read(tag, offset, size);
      } else {
        co_await sched.Write(tag, offset, size);
      }
    }
  }
};

TEST(SchedulerTest, SingleOpCompletes) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  bool done = false;
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone}, 0, 4096);
    done = true;
  };
  sim::Detach(t());
  rig.loop.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.sched.inflight(), 0);
}

TEST(SchedulerTest, TracksVopCostPerTenant) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone}, 0, 1024);
  };
  sim::Detach(t());
  rig.loop.Run();
  // A 1KB read costs ~1 VOP by construction.
  EXPECT_NEAR(rig.sched.tracker().Stats(0).vops, 1.0, 0.1);
}

TEST(SchedulerTest, ChunkingSplitsLargeOps) {
  Rig rig;
  rig.sched.SetAllocation(0, 10000.0);
  auto t = [&]() -> sim::Task<void> {
    // 512KB -> 4 chunks of 128KB.
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone}, 0,
                            512 * 1024);
  };
  sim::Detach(t());
  rig.loop.Run();
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_ops, 4u);
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_bytes, 512u * 1024u);
}

TEST(SchedulerTest, ChunkingDisabledKeepsOpWhole) {
  SchedulerOptions opt;
  opt.enable_chunking = false;
  Rig rig(opt);
  rig.sched.SetAllocation(0, 10000.0);
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone}, 0,
                            512 * 1024);
  };
  sim::Detach(t());
  rig.loop.Run();
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_ops, 1u);
}

TEST(SchedulerTest, EqualAllocationsSplitVopsEqually) {
  // Core paper property (Fig. 7): tenants with equal VOP allocations get
  // equal VOP throughput even with different op types and sizes.
  Rig rig;
  const SimTime end = 3 * kSecond;
  {
    sim::TaskGroup group(rig.loop);
    for (TenantId t = 0; t < 4; ++t) {
      rig.sched.SetAllocation(t, 1000.0);
    }
    // Two readers (different sizes), two writers (different sizes), four
    // workers each (queue depth 16 < device QD 32: demand-limited is fine;
    // use 8 workers each to keep everyone backlogged).
    for (int w = 0; w < 8; ++w) {
      group.Spawn(rig.Worker(0, ssd::IoType::kRead, 4 * 1024, end));
      group.Spawn(rig.Worker(1, ssd::IoType::kRead, 64 * 1024, end));
      group.Spawn(rig.Worker(2, ssd::IoType::kWrite, 4 * 1024, end));
      group.Spawn(rig.Worker(3, ssd::IoType::kWrite, 64 * 1024, end));
    }
    rig.loop.Run();
  }
  std::vector<double> vops;
  for (TenantId t = 0; t < 4; ++t) {
    vops.push_back(rig.sched.tracker().Stats(t).vops);
  }
  EXPECT_GT(MinMaxRatio(vops), 0.9) << vops[0] << " " << vops[1] << " "
                                    << vops[2] << " " << vops[3];
}

TEST(SchedulerTest, ProportionalAllocationsSplitVopsProportionally) {
  Rig rig;
  const SimTime end = 3 * kSecond;
  {
    sim::TaskGroup group(rig.loop);
    rig.sched.SetAllocation(0, 3000.0);
    rig.sched.SetAllocation(1, 1000.0);
    for (int w = 0; w < 12; ++w) {
      group.Spawn(rig.Worker(0, ssd::IoType::kRead, 8 * 1024, end));
      group.Spawn(rig.Worker(1, ssd::IoType::kRead, 8 * 1024, end));
    }
    rig.loop.Run();
  }
  const double ratio = rig.sched.tracker().Stats(0).vops /
                       rig.sched.tracker().Stats(1).vops;
  EXPECT_NEAR(ratio, 3.0, 0.45);
}

TEST(SchedulerTest, WorkConservationGivesIdleShareToBusyTenant) {
  // Tenant 1 has a big allocation but no demand: tenant 0 should soak up
  // the full device throughput.
  Rig solo;
  const SimTime end = 2 * kSecond;
  {
    sim::TaskGroup group(solo.loop);
    solo.sched.SetAllocation(0, 1000.0);
    solo.sched.SetAllocation(1, 30000.0);  // idle
    for (int w = 0; w < 32; ++w) {
      group.Spawn(solo.Worker(0, ssd::IoType::kRead, 4 * 1024, end));
    }
    solo.loop.Run();
  }
  // ~full read throughput at 4KB for 2s despite a 1k VOP/s allocation.
  const double vops = solo.sched.tracker().Stats(0).vops;
  EXPECT_GT(vops / 2.0, 20000.0);
}

TEST(SchedulerTest, ZeroAllocationTenantServedWhenAlone) {
  Rig rig;
  const SimTime end = 1 * kSecond;
  {
    sim::TaskGroup group(rig.loop);
    // Auto-registered with allocation 0 (best effort).
    for (int w = 0; w < 8; ++w) {
      group.Spawn(rig.Worker(5, ssd::IoType::kRead, 4 * 1024, end));
    }
    rig.loop.Run();
  }
  EXPECT_GT(rig.sched.tracker().Stats(5).total_ops(), 1000u);
}

TEST(SchedulerTest, ZeroAllocationTenantYieldsUnderContention) {
  Rig rig;
  const SimTime end = 2 * kSecond;
  {
    sim::TaskGroup group(rig.loop);
    rig.sched.SetAllocation(0, 1000.0);
    rig.sched.SetAllocation(1, 0.0);
    for (int w = 0; w < 16; ++w) {
      group.Spawn(rig.Worker(0, ssd::IoType::kRead, 4 * 1024, end));
      group.Spawn(rig.Worker(1, ssd::IoType::kRead, 4 * 1024, end));
    }
    rig.loop.Run();
  }
  // The provisioned tenant dominates.
  EXPECT_GT(rig.sched.tracker().Stats(0).vops,
            10.0 * rig.sched.tracker().Stats(1).vops);
}

TEST(SchedulerTest, RoundsAdvanceUnderLoad) {
  Rig rig;
  const SimTime end = 500 * kMillisecond;
  {
    sim::TaskGroup group(rig.loop);
    rig.sched.SetAllocation(0, 1000.0);
    for (int w = 0; w < 8; ++w) {
      group.Spawn(rig.Worker(0, ssd::IoType::kRead, 4 * 1024, end));
    }
    rig.loop.Run();
  }
  EXPECT_GT(rig.sched.rounds(), 10u);
}

TEST(SchedulerTest, AllocationUpdateShiftsShares) {
  // Start 1:1, then flip to 4:1 mid-run; the post-flip VOP split follows.
  Rig rig;
  {
    sim::TaskGroup group(rig.loop);
    rig.sched.SetAllocation(0, 1000.0);
    rig.sched.SetAllocation(1, 1000.0);
    const SimTime end = 4 * kSecond;
    for (int w = 0; w < 12; ++w) {
      group.Spawn(rig.Worker(0, ssd::IoType::kRead, 8 * 1024, end));
      group.Spawn(rig.Worker(1, ssd::IoType::kRead, 8 * 1024, end));
    }
    double t0_mid = 0.0;
    double t1_mid = 0.0;
    rig.loop.ScheduleAt(2 * kSecond, [&] {
      t0_mid = rig.sched.tracker().Stats(0).vops;
      t1_mid = rig.sched.tracker().Stats(1).vops;
      rig.sched.SetAllocation(0, 4000.0);
    });
    rig.loop.Run();
    const double t0_post = rig.sched.tracker().Stats(0).vops - t0_mid;
    const double t1_post = rig.sched.tracker().Stats(1).vops - t1_mid;
    EXPECT_NEAR(t0_post / t1_post, 4.0, 0.8);
  }
}

TEST(SchedulerTest, MixedSizeInsulationMmr) {
  // 8 tenants, 4 read / 4 write, sizes from 1KB to 64KB, equal allocations:
  // VOP MMR should be near the paper's 0.98 (we accept >= 0.85 in this
  // short run).
  Rig rig;
  const SimTime end = 3 * kSecond;
  const uint32_t sizes[] = {1024,       4096,        16384,      65536,
                            2 * 1024,   8 * 1024,    32 * 1024,  64 * 1024};
  {
    sim::TaskGroup group(rig.loop);
    for (TenantId t = 0; t < 8; ++t) {
      rig.sched.SetAllocation(t, 1000.0);
      const ssd::IoType type = t < 4 ? ssd::IoType::kRead : ssd::IoType::kWrite;
      for (int w = 0; w < 4; ++w) {
        group.Spawn(rig.Worker(t, type, sizes[t], end));
      }
    }
    rig.loop.Run();
  }
  std::vector<double> vops;
  for (TenantId t = 0; t < 8; ++t) {
    vops.push_back(rig.sched.tracker().Stats(t).vops);
  }
  EXPECT_GT(MinMaxRatio(vops), 0.85);
}

TEST(SchedulerTest, LifecycleStatsRecordQueueWaitAndService) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  const SimTime end = 500 * kMillisecond;
  {
    sim::TaskGroup group(rig.loop);
    for (int w = 0; w < 4; ++w) {
      group.Spawn(rig.Worker(0, ssd::IoType::kRead, 4 * 1024, end));
    }
    rig.loop.Run();
  }
  const TenantLifecycleStats* stats = rig.sched.lifecycle(0);
  ASSERT_NE(stats, nullptr);
  const obs::IoClassStats* gets = stats->of(AppRequest::kGet, InternalOp::kNone);
  ASSERT_NE(gets, nullptr);
  EXPECT_GT(gets->ops, 100u);
  EXPECT_EQ(gets->chunks, gets->ops);  // 4KB ops never split
  EXPECT_EQ(gets->bytes, gets->ops * 4096u);
  // One queue-wait and one service sample per op; device time is nonzero.
  EXPECT_EQ(gets->queue_wait.count(), gets->ops);
  EXPECT_EQ(gets->service.count(), gets->ops);
  EXPECT_GT(gets->service.Percentile(0.5), 0u);
  // Only the (GET, direct) class saw traffic; untouched classes stay
  // unallocated.
  EXPECT_EQ(stats->Aggregate().ops, gets->ops);
  EXPECT_EQ(stats->of(AppRequest::kPut, InternalOp::kNone), nullptr);
  // Unknown tenants have no stats.
  EXPECT_EQ(rig.sched.lifecycle(42), nullptr);
}

TEST(SchedulerTest, ThrottledTenantQueueWaitDominates) {
  // Two identical backlogged workloads; tenant 1's allocation is 50x
  // smaller, so DRR makes its ops sit in the queue: its queue-wait p99 must
  // clearly exceed the generously provisioned tenant's.
  Rig rig;
  rig.sched.SetAllocation(0, 20000.0);
  rig.sched.SetAllocation(1, 400.0);
  const SimTime end = 2 * kSecond;
  {
    sim::TaskGroup group(rig.loop);
    for (int w = 0; w < 8; ++w) {
      group.Spawn(rig.Worker(0, ssd::IoType::kRead, 4 * 1024, end));
      group.Spawn(rig.Worker(1, ssd::IoType::kRead, 4 * 1024, end));
    }
    rig.loop.Run();
  }
  const obs::IoClassStats fast = rig.sched.lifecycle(0)->Aggregate();
  const obs::IoClassStats slow = rig.sched.lifecycle(1)->Aggregate();
  ASSERT_GT(fast.ops, 0u);
  ASSERT_GT(slow.ops, 0u);
  const uint64_t fast_p99 = fast.queue_wait.Percentile(0.99);
  const uint64_t slow_p99 = slow.queue_wait.Percentile(0.99);
  EXPECT_GT(slow_p99, 10 * fast_p99) << slow_p99 << " vs " << fast_p99;
  // Device service time is allocation-independent — same op size, same
  // device — so the gap is attributable to scheduling, not the SSD.
  EXPECT_LT(slow.service.Percentile(0.5), 4 * fast.service.Percentile(0.5));
}

// Span collection (the per-op lifecycle trace) is opt-in.
TEST(SchedulerTest, TracingDisabledByDefault) {
  Rig rig;
  EXPECT_EQ(rig.sched.spans(), nullptr);
}

// --- chunking boundary cases ---

// Helper: one awaited read of `size`, returning the tenant's chunk count
// from lifecycle stats.
uint64_t ChunksForRead(Rig& rig, uint32_t size) {
  rig.sched.SetAllocation(0, 100000.0);
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone}, 0, size);
  };
  sim::Detach(t());
  rig.loop.Run();
  const TenantLifecycleStats* stats = rig.sched.lifecycle(0);
  EXPECT_NE(stats, nullptr);
  const obs::IoClassStats* cls = stats->of(AppRequest::kGet, InternalOp::kNone);
  EXPECT_NE(cls, nullptr);
  EXPECT_EQ(cls->ops, 1u);
  EXPECT_EQ(cls->bytes, size);
  return cls->chunks;
}

TEST(SchedulerTest, IoOfExactlyChunkBytesIsOneChunk) {
  Rig rig;
  const uint32_t chunk = SchedulerOptions{}.chunk_bytes;
  EXPECT_EQ(ChunksForRead(rig, chunk), 1u);
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_ops, 1u);
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_bytes, chunk);
}

TEST(SchedulerTest, IoOneByteOverChunkBytesSplitsInTwo) {
  Rig rig;
  const uint32_t chunk = SchedulerOptions{}.chunk_bytes;
  EXPECT_EQ(ChunksForRead(rig, chunk + 1), 2u);
  // Physical split: a full chunk plus a 1-byte remainder.
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_ops, 2u);
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_bytes, chunk + 1u);
}

TEST(SchedulerTest, IoOneByteUnderChunkBytesIsOneChunk) {
  Rig rig;
  const uint32_t chunk = SchedulerOptions{}.chunk_bytes;
  EXPECT_EQ(ChunksForRead(rig, chunk - 1), 1u);
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_ops, 1u);
}

TEST(SchedulerTest, ZeroSizeIoCompletesImmediately) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  bool done = false;
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone}, 0, 0);
    done = true;
  };
  sim::Detach(t());
  rig.loop.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.sched.inflight(), 0);
  // No physical IO, no VOPs charged; the lifecycle op is recorded with
  // zero chunks and bytes.
  EXPECT_EQ(rig.sched.tracker().Stats(0).read_ops, 0u);
  EXPECT_EQ(rig.sched.tracker().Stats(0).vops, 0.0);
  const TenantLifecycleStats* stats = rig.sched.lifecycle(0);
  ASSERT_NE(stats, nullptr);
  const obs::IoClassStats* cls = stats->of(AppRequest::kGet, InternalOp::kNone);
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->ops, 1u);
  EXPECT_EQ(cls->chunks, 0u);
  EXPECT_EQ(cls->bytes, 0u);
}

// Op-pool recycling: many sequential awaited ops circulate through the same
// pooled Op slots; each op's OneShot must complete exactly once (a recycled
// Op double-completing a waiter would either resume a dead coroutine or
// complete a later op early — both show up here as a wrong count or crash).
TEST(SchedulerTest, OpPoolRecyclingNeverDoubleCompletes) {
  Rig rig;
  rig.sched.SetAllocation(0, 100000.0);
  int completions = 0;
  auto t = [&]() -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      // Mix sizes so recycled Ops see different chunk counts (1 and 3).
      const uint32_t size = (i % 2 == 0) ? 4096u : 300u * 1024u;
      co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone},
                              static_cast<uint64_t>(i) * kMiB, size);
      ++completions;
    }
  };
  sim::Detach(t());
  rig.loop.Run();
  EXPECT_EQ(completions, 200);
  EXPECT_EQ(rig.sched.inflight(), 0);
  const obs::IoClassStats* cls =
      rig.sched.lifecycle(0)->of(AppRequest::kGet, InternalOp::kNone);
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->ops, 200u);
  EXPECT_EQ(cls->chunks, 100u * 1u + 100u * 3u);
}

TEST(SchedulerTest, ConcurrentTenantsRecyclePooledOpsCleanly) {
  Rig rig;
  const SimTime end = 300 * kMillisecond;
  {
    sim::TaskGroup group(rig.loop);
    for (int t = 0; t < 4; ++t) {
      rig.sched.SetAllocation(t, 1000.0);
      for (int w = 0; w < 4; ++w) {
        group.Spawn(rig.Worker(t, t % 2 == 0 ? ssd::IoType::kRead
                                             : ssd::IoType::kWrite,
                               t % 2 == 0 ? 4 * 1024 : 256 * 1024, end));
      }
    }
    rig.loop.Run();
  }
  EXPECT_EQ(rig.sched.inflight(), 0);
  // Every submitted op completed exactly once: per-class op counts match
  // the all-classes aggregate, and byte totals reconcile.
  for (int t = 0; t < 4; ++t) {
    const TenantLifecycleStats* stats = rig.sched.lifecycle(t);
    ASSERT_NE(stats, nullptr);
    const obs::IoClassStats agg = stats->Aggregate();
    EXPECT_GT(agg.ops, 0u);
    EXPECT_GE(agg.chunks, agg.ops);
    const auto& s = rig.sched.tracker().Stats(t);
    EXPECT_EQ(agg.bytes, s.read_bytes + s.write_bytes);
  }
}

// --- batched IOPs with multi-tag manifests (WriteShared) ---

TEST(SchedulerTest, SharedWriteSplitsCostByBytes) {
  Rig rig;
  rig.sched.SetAllocation(0, 10000.0);
  rig.sched.SetAllocation(1, 10000.0);
  rig.sched.SetAllocation(9, 10000.0);
  constexpr uint32_t kSize = 64 * 1024;  // single chunk
  auto t = [&]() -> sim::Task<void> {
    // Reference: the same IOP as a plain single-tag write.
    co_await rig.sched.Write({9, AppRequest::kPut, InternalOp::kNone}, 0,
                             kSize);
    // Batched: tenants 0 and 1 ride one IOP with a 1:3 byte split.
    std::vector<IoShare> manifest;
    manifest.push_back({{0, AppRequest::kPut, InternalOp::kNone}, kSize / 4});
    manifest.push_back({{1, AppRequest::kPut, InternalOp::kNone},
                        kSize - kSize / 4});
    co_await rig.sched.WriteShared(kSize, kSize, std::move(manifest));
  };
  sim::Detach(t());
  rig.loop.Run();
  const double reference = rig.sched.tracker().Stats(9).vops;
  const double v0 = rig.sched.tracker().Stats(0).vops;
  const double v1 = rig.sched.tracker().Stats(1).vops;
  ASSERT_GT(reference, 0.0);
  // Exact-sum invariant: the split shares reconstruct the IOP's cost
  // bit-for-bit — not approximately.
  EXPECT_EQ(v0 + v1, reference);
  // Byte-proportional: tenant 1 carried 3x the bytes.
  EXPECT_NEAR(v1 / v0, 3.0, 1e-9);
  EXPECT_EQ(rig.sched.tracker().Stats(0).write_bytes, uint64_t{kSize} / 4);
  EXPECT_EQ(rig.sched.tracker().Stats(1).write_bytes,
            uint64_t{kSize} - kSize / 4);
}

TEST(SchedulerTest, SharedWriteSingleShareEquivalentToPlainWrite) {
  Rig rig;
  rig.sched.SetAllocation(0, 10000.0);
  rig.sched.SetAllocation(9, 10000.0);
  constexpr uint32_t kSize = 16 * 1024;
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Write({9, AppRequest::kPut, InternalOp::kNone}, 0,
                             kSize);
    std::vector<IoShare> manifest;
    manifest.push_back({{0, AppRequest::kPut, InternalOp::kNone}, kSize});
    co_await rig.sched.WriteShared(kSize, kSize, std::move(manifest));
  };
  sim::Detach(t());
  rig.loop.Run();
  EXPECT_EQ(rig.sched.tracker().Stats(0).vops,
            rig.sched.tracker().Stats(9).vops);
  EXPECT_EQ(rig.sched.tracker().Stats(0).write_ops, 1u);
  // A single-share manifest takes the plain path: no shared-IO slices.
  EXPECT_EQ(rig.sched.tracker().shared_io_shares(), 0u);
}

TEST(SchedulerTest, SharedWriteChunkedManifestSumsExact) {
  // A 512KB batched write splits into 4 device chunks of 128KB; manifest
  // ranges deliberately straddle chunk boundaries. The per-chunk slice
  // costs must still reconstruct the full op cost exactly, and each
  // contributor's bytes must match its manifest share.
  Rig rig;
  for (TenantId t : {0u, 1u, 2u, 9u}) {
    rig.sched.SetAllocation(t, 100000.0);
  }
  constexpr uint32_t kSize = 512 * 1024;
  const uint32_t kShare0 = 100 * 1024;  // inside chunk 0
  const uint32_t kShare1 = 200 * 1024;  // spans chunks 0-2
  const uint32_t kShare2 = kSize - kShare0 - kShare1;  // spans chunks 2-3
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Write({9, AppRequest::kPut, InternalOp::kNone}, 0,
                             kSize);
    std::vector<IoShare> manifest;
    manifest.push_back({{0, AppRequest::kPut, InternalOp::kNone}, kShare0});
    manifest.push_back({{1, AppRequest::kPut, InternalOp::kFlush}, kShare1});
    manifest.push_back({{2, AppRequest::kPut, InternalOp::kNone}, kShare2});
    co_await rig.sched.WriteShared(0, kSize, std::move(manifest));
  };
  sim::Detach(t());
  rig.loop.Run();
  const auto& tr = rig.sched.tracker();
  const double reference = tr.Stats(9).vops;
  ASSERT_GT(reference, 0.0);
  EXPECT_EQ(tr.Stats(0).vops + tr.Stats(1).vops + tr.Stats(2).vops, reference);
  EXPECT_EQ(tr.Stats(0).write_bytes, uint64_t{kShare0});
  EXPECT_EQ(tr.Stats(1).write_bytes, uint64_t{kShare1});
  EXPECT_EQ(tr.Stats(2).write_bytes, uint64_t{kShare2});
  EXPECT_EQ(tr.shared_io_bytes(), uint64_t{kSize});
}

TEST(SchedulerTest, SharedWriteLandsCostOnManifestTags) {
  // Each share's slice must be recorded under its own (tenant, app,
  // internal-op) class — the leader's tag schedules the op but does not
  // absorb the followers' costs.
  Rig rig;
  rig.sched.SetAllocation(3, 10000.0);
  rig.sched.SetAllocation(4, 10000.0);
  constexpr uint32_t kSize = 8 * 1024;
  auto t = [&]() -> sim::Task<void> {
    std::vector<IoShare> manifest;
    manifest.push_back({{3, AppRequest::kPut, InternalOp::kNone}, kSize / 2});
    manifest.push_back({{4, AppRequest::kPut, InternalOp::kFlush}, kSize / 2});
    co_await rig.sched.WriteShared(0, kSize, std::move(manifest));
  };
  sim::Detach(t());
  rig.loop.Run();
  const auto& tr = rig.sched.tracker();
  EXPECT_GT(tr.VopsBy(3, AppRequest::kPut, InternalOp::kNone,
                      ssd::IoType::kWrite),
            0.0);
  EXPECT_GT(tr.VopsBy(4, AppRequest::kPut, InternalOp::kFlush,
                      ssd::IoType::kWrite),
            0.0);
  // Nothing leaked onto classes no share named.
  EXPECT_EQ(tr.VopsBy(3, AppRequest::kPut, InternalOp::kFlush,
                      ssd::IoType::kWrite),
            0.0);
  EXPECT_EQ(tr.VopsBy(4, AppRequest::kPut, InternalOp::kNone,
                      ssd::IoType::kWrite),
            0.0);
  EXPECT_EQ(tr.shared_io_shares(), 2u);
  // Lifecycle stats (device IOP accounting) bill the batch to the leader:
  // one op under tenant 3, none under tenant 4.
  const TenantLifecycleStats* leader = rig.sched.lifecycle(3);
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->Aggregate().ops, 1u);
  const TenantLifecycleStats* follower = rig.sched.lifecycle(4);
  ASSERT_NE(follower, nullptr);
  EXPECT_EQ(follower->Aggregate().ops, 0u);
}

}  // namespace
}  // namespace libra::iosched
