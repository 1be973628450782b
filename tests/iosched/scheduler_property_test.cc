// Parameterized scheduler properties: proportional sharing must hold for
// arbitrary allocation ratios and op-size pairings, and VOP insulation for
// every read/write tenant pairing on the size grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::iosched {
namespace {

ssd::CalibrationTable SchedTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

// Runs two backlogged tenants with the given allocations/op shapes and
// returns their consumed-VOP ratio (tenant 0 / tenant 1).
double TwoTenantVopRatio(double alloc0, double alloc1, ssd::IoType type0,
                         uint32_t size0, ssd::IoType type1, uint32_t size1) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(512 * kMiB);
  IoScheduler sched(loop, device,
                    std::make_unique<ExactCostModel>(SchedTable()));
  sched.SetAllocation(0, alloc0);
  sched.SetAllocation(1, alloc1);
  Rng rng(71);
  auto worker = [&](TenantId t, ssd::IoType type, uint32_t size,
                    SimTime end) -> sim::Task<void> {
    while (loop.Now() < end) {
      const uint64_t slots = (512 * kMiB) / size;
      const uint64_t off = rng.NextU64(slots) * size;
      IoTag tag{.tenant = t, .app = AppRequest::kGet};
      if (type == ssd::IoType::kRead) {
        co_await sched.Read(tag, off, size);
      } else {
        co_await sched.Write(tag, off, size);
      }
    }
  };
  {
    sim::TaskGroup group(loop);
    const SimTime end = 2 * kSecond;
    for (int w = 0; w < 16; ++w) {
      group.Spawn(worker(0, type0, size0, end));
      group.Spawn(worker(1, type1, size1, end));
    }
    loop.Run();
  }
  return sched.tracker().Stats(0).vops / sched.tracker().Stats(1).vops;
}

// --- proportionality over allocation ratios ---

class ProportionalShares : public ::testing::TestWithParam<double> {};

TEST_P(ProportionalShares, VopSplitFollowsAllocationRatio) {
  const double ratio = GetParam();
  const double measured = TwoTenantVopRatio(1000.0 * ratio, 1000.0,
                                            ssd::IoType::kRead, 8192,
                                            ssd::IoType::kRead, 8192);
  EXPECT_NEAR(measured / ratio, 1.0, 0.15) << "target ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(Ratios, ProportionalShares,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 5.0, 8.0));

// --- insulation across op-shape pairings ---

using ShapeParam = std::tuple<uint32_t, uint32_t>;  // (read KB, write KB)

class EqualShareInsulation : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(EqualShareInsulation, EqualAllocationsGiveEqualVops) {
  const auto [read_kb, write_kb] = GetParam();
  const double ratio =
      TwoTenantVopRatio(1000.0, 1000.0, ssd::IoType::kRead, read_kb * 1024,
                        ssd::IoType::kWrite, write_kb * 1024);
  // A reader and a writer with equal VOP allocations and wildly different
  // op sizes should consume VOPs ~1:1 (the Fig. 7 property).
  EXPECT_NEAR(ratio, 1.0, 0.2) << read_kb << "KB reads vs " << write_kb
                               << "KB writes";
}

INSTANTIATE_TEST_SUITE_P(
    SizePairs, EqualShareInsulation,
    ::testing::Combine(::testing::Values(1u, 16u, 128u),
                       ::testing::Values(1u, 16u, 128u)),
    [](const ::testing::TestParamInfo<ShapeParam>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "k_w" +
             std::to_string(std::get<1>(info.param)) + "k";
    });

// --- dispatch order pin: many registered, few active tenants ---
//
// 1024 registered tenants (even ids 2..2048, every eighth with zero weight)
// of which 8-32 run at a time in 100 ms phases, each with 1-3 closed-loop
// workers (up to 96 against a device queue of 32). Workers mix 4 KB reads,
// ops that cross chunk_bytes and group-committed WriteShared manifests, and
// sleep 0, 1, 5 or 30 ms between ops, so tenants go idle for zero, one or
// several rounds and come back. Mid-run, ids 1 and 999 register while
// others are queued, inserting below the ring cursor. The hash of every
// op's (tenant, per-tenant ordinal, completion time) plus rounds() pins the
// DRR dispatch order: any change to ring order, round cadence, deficit
// refill or the idle clamp shows up here.

struct PinRig {
  sim::EventLoop loop;
  ssd::SsdDevice device{loop, ssd::Intel320Profile()};
  IoScheduler sched{loop, device,
                    std::make_unique<ExactCostModel>(SchedTable())};
  Rng rng{20261017};
  std::vector<TenantId> ids;
  std::vector<uint64_t> ordinal = std::vector<uint64_t>(2100, 0);
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  uint64_t ops = 0;
  // Gaps after which the worker's next op saw 0, 1 or >= 2 new rounds.
  uint64_t gaps_by_rounds[3] = {0, 0, 0};

  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  void Record(TenantId t) {
    Mix(t);
    Mix(ordinal[t]++);
    Mix(static_cast<uint64_t>(loop.Now()));
    ++ops;
  }
  uint64_t Offset(uint32_t size) {
    return rng.NextU64((256 * kMiB - size) / 4096) * 4096;
  }
};

sim::Task<void> PinWorker(PinRig* rig, TenantId t, SimTime end) {
  static constexpr SimDuration kGaps[] = {0, 0, kMillisecond,
                                          5 * kMillisecond, 30 * kMillisecond};
  while (rig->loop.Now() < end) {
    const uint64_t kind = rig->rng.NextU64(10);
    const IoTag tag{.tenant = t, .app = AppRequest::kGet};
    if (kind < 4) {
      co_await rig->sched.Read(tag, rig->Offset(4096), 4096);
    } else if (kind < 6) {
      const uint32_t size =
          4096 * static_cast<uint32_t>(4 + rig->rng.NextU64(13));
      co_await rig->sched.Read(tag, rig->Offset(size), size);
    } else if (kind < 8) {
      // Crosses chunk_bytes (128 KiB): dispatched as 2-3 chunks.
      const uint32_t size =
          4096 * static_cast<uint32_t>(33 + rig->rng.NextU64(64));
      const IoTag put{.tenant = t, .app = AppRequest::kPut};
      if (kind == 6) {
        co_await rig->sched.Read(tag, rig->Offset(size), size);
      } else {
        co_await rig->sched.Write(put, rig->Offset(size), size);
      }
    } else {
      // Group commit led by `t`; riders are any registered tenants.
      const int riders = 1 + static_cast<int>(rig->rng.NextU64(3));
      std::vector<IoShare> manifest;
      uint32_t size = 0;
      for (int r = 0; r <= riders; ++r) {
        const TenantId who =
            r == 0 ? t : rig->ids[rig->rng.NextU64(rig->ids.size())];
        const uint32_t bytes =
            4096 * static_cast<uint32_t>(1 + rig->rng.NextU64(24));
        manifest.push_back(
            {{who, AppRequest::kPut, InternalOp::kFlush, {}}, bytes});
        size += bytes;
      }
      co_await rig->sched.WriteShared(rig->Offset(size), size,
                                      std::move(manifest));
    }
    rig->Record(t);
    const SimDuration gap = kGaps[rig->rng.NextU64(5)];
    if (gap > 0) {
      const uint64_t before = rig->sched.rounds();
      co_await sim::SleepFor(rig->loop, gap);
      const uint64_t passed = rig->sched.rounds() - before;
      ++rig->gaps_by_rounds[std::min<uint64_t>(passed, 2)];
    }
  }
}

sim::Task<void> PinPhases(PinRig* rig, sim::TaskGroup* group) {
  for (int phase = 0; phase < 16; ++phase) {
    const SimTime start = phase * 100 * kMillisecond;
    co_await sim::SleepUntil(rig->loop, start);
    const int active = 8 + static_cast<int>(rig->rng.NextU64(25));
    for (int k = 0; k < active; ++k) {
      size_t pick = rig->rng.NextU64(rig->ids.size());
      if (phase == 5) {
        pick -= pick % 8;  // a phase of only zero-weight tenants
      }
      const SimTime end =
          start + 100 * kMillisecond +
          static_cast<SimTime>(rig->rng.NextU64(50)) * kMillisecond;
      const int workers = 1 + static_cast<int>(rig->rng.NextU64(3));
      for (int w = 0; w < workers; ++w) {
        group->Spawn(PinWorker(rig, rig->ids[pick], end));
      }
    }
    if (phase == 4) {
      rig->sched.SetAllocation(1, 800.0);  // sorts below every other id
      group->Spawn(PinWorker(rig, 1, start + 300 * kMillisecond));
    }
    if (phase == 7) {
      // Never registered: the first Submit registers it mid-vector.
      group->Spawn(PinWorker(rig, 999, start + 200 * kMillisecond));
    }
  }
}

TEST(SchedulerDispatchPin, ManyRegisteredFewActiveOrderIsPinned) {
  PinRig rig;
  rig.device.Prefill(256 * kMiB);
  for (TenantId id = 2; id <= 2048; id += 2) {
    const double alloc =
        rig.ids.size() % 8 == 0 ? 0.0 : 100.0 + rig.rng.NextU64(4900);
    rig.sched.SetAllocation(id, alloc);
    rig.ids.push_back(id);
  }
  {
    sim::TaskGroup group(rig.loop);
    group.Spawn(PinPhases(&rig, &group));
    rig.loop.Run();
  }
  rig.Mix(rig.sched.rounds());
  EXPECT_GE(rig.loop.Now(), 1600 * kMillisecond);  // every phase ran
  EXPECT_EQ(rig.sched.backlog(), 0u);
  EXPECT_EQ(rig.sched.inflight(), 0);
  EXPECT_GT(rig.ordinal[1], 0u);
  EXPECT_GT(rig.ordinal[999], 0u);
  EXPECT_EQ(rig.sched.Allocation(999), 0.0);
  for (uint64_t n : rig.gaps_by_rounds) {
    EXPECT_GT(n, 0u);
  }
  // Computed on the scheduler that scanned every registered tenant.
  EXPECT_EQ(rig.hash, 9198280789737014923ULL) << "ops=" << rig.ops
                            << " rounds=" << rig.sched.rounds()
                            << " gaps(0/1/2+ rounds)=" << rig.gaps_by_rounds[0]
                            << "/" << rig.gaps_by_rounds[1] << "/"
                            << rig.gaps_by_rounds[2];
}

// The same run with the tenants registered in a shuffled order: slots
// follow arrival, but the DRR ring follows ids, so the pin is unchanged.
TEST(SchedulerDispatchPin, ShuffledRegistrationKeepsThePinnedOrder) {
  PinRig rig;
  rig.device.Prefill(256 * kMiB);
  std::vector<std::pair<TenantId, double>> registrations;
  for (TenantId id = 2; id <= 2048; id += 2) {
    const double alloc =
        rig.ids.size() % 8 == 0 ? 0.0 : 100.0 + rig.rng.NextU64(4900);
    registrations.emplace_back(id, alloc);
    rig.ids.push_back(id);
  }
  Rng shuffle(17);
  for (size_t k = registrations.size(); k > 1; --k) {
    std::swap(registrations[k - 1], registrations[shuffle.NextU64(k)]);
  }
  for (const auto& [id, alloc] : registrations) {
    rig.sched.SetAllocation(id, alloc);
  }
  {
    sim::TaskGroup group(rig.loop);
    group.Spawn(PinPhases(&rig, &group));
    rig.loop.Run();
  }
  rig.Mix(rig.sched.rounds());
  EXPECT_EQ(rig.hash, 9198280789737014923ULL) << "ops=" << rig.ops;
}

}  // namespace
}  // namespace libra::iosched
