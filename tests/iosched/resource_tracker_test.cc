#include "src/iosched/resource_tracker.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/rng.h"

namespace libra::iosched {
namespace {

TEST(ResourceTrackerTest, UnknownTenantHasEmptyStats) {
  ResourceTracker tr;
  EXPECT_EQ(tr.Stats(42).total_ops(), 0u);
  EXPECT_EQ(tr.Profile(42, AppRequest::kGet, 2.0).direct, 2.0);
}

TEST(ResourceTrackerTest, DirectCostPerNormalizedRequest) {
  ResourceTracker tr(1.0);  // alpha 1: no smoothing, easier arithmetic
  // 10 GETs of 4KB each consuming 1.2 VOPs apiece.
  for (int i = 0; i < 10; ++i) {
    tr.RecordAppRequest(1, AppRequest::kGet, 4096);
    tr.RecordIo({1, AppRequest::kGet, InternalOp::kNone}, ssd::IoType::kRead,
                4096, 1.2);
  }
  tr.Roll();
  // u = 12 VOPs over s = 40 normalized requests -> q = 0.3.
  EXPECT_NEAR(tr.Profile(1, AppRequest::kGet).direct, 0.3, 1e-9);
}

TEST(ResourceTrackerTest, IndirectCostAttribution) {
  ResourceTracker tr(1.0);
  // 100 normalized PUTs trigger one FLUSH that costs 50 VOPs.
  for (int i = 0; i < 100; ++i) {
    tr.RecordAppRequest(1, AppRequest::kPut, 1024);
    tr.RecordIo({1, AppRequest::kPut, InternalOp::kNone}, ssd::IoType::kWrite,
                1024, 2.0);
  }
  tr.RecordTrigger(1, AppRequest::kPut, InternalOp::kFlush);
  tr.RecordIo({1, AppRequest::kPut, InternalOp::kFlush}, ssd::IoType::kWrite,
              256 * 1024, 50.0);
  tr.RecordInternalOpDone(1, InternalOp::kFlush);
  tr.Roll();

  const AppRequestProfile p = tr.Profile(1, AppRequest::kPut);
  EXPECT_NEAR(p.direct, 2.0, 1e-9);
  // q_flush = 50 VOPs/op, rate = 1 trigger / 100 requests -> 0.5 VOPs/req.
  EXPECT_NEAR(p.indirect[static_cast<int>(InternalOp::kFlush)], 0.5, 1e-9);
  EXPECT_NEAR(p.total(), 2.5, 1e-9);
}

TEST(ResourceTrackerTest, SporadicOpNormalizedSinceLastTrigger) {
  ResourceTracker tr(1.0);
  // Interval 1: 50 PUTs, no compaction.
  for (int i = 0; i < 50; ++i) {
    tr.RecordAppRequest(1, AppRequest::kPut, 1024);
  }
  tr.Roll();
  // Interval 2: 50 more PUTs, then one COMPACT triggers.
  for (int i = 0; i < 50; ++i) {
    tr.RecordAppRequest(1, AppRequest::kPut, 1024);
  }
  tr.RecordTrigger(1, AppRequest::kPut, InternalOp::kCompact);
  tr.RecordIo({1, AppRequest::kPut, InternalOp::kCompact}, ssd::IoType::kWrite,
              512 * 1024, 100.0);
  tr.RecordInternalOpDone(1, InternalOp::kCompact);
  tr.Roll();

  // The trigger rate is normalized by all 100 requests since the start,
  // not the 50 in the trigger interval.
  const AppRequestProfile p = tr.Profile(1, AppRequest::kPut);
  EXPECT_NEAR(p.indirect[static_cast<int>(InternalOp::kCompact)],
              100.0 * (1.0 / 100.0), 1e-9);
}

TEST(ResourceTrackerTest, InflightInternalOpDefersAttribution) {
  ResourceTracker tr(1.0);
  tr.RecordAppRequest(1, AppRequest::kPut, 1024);
  tr.RecordTrigger(1, AppRequest::kPut, InternalOp::kFlush);
  tr.RecordIo({1, AppRequest::kPut, InternalOp::kFlush}, ssd::IoType::kWrite,
              4096, 10.0);
  // Flush has NOT completed; rolling must not lose the partial 10 VOPs.
  tr.Roll();
  tr.RecordIo({1, AppRequest::kPut, InternalOp::kFlush}, ssd::IoType::kWrite,
              4096, 10.0);
  tr.RecordInternalOpDone(1, InternalOp::kFlush);
  tr.Roll();
  // q_flush sees the full 20 VOPs when the op finally completes.
  const AppRequestProfile p = tr.Profile(1, AppRequest::kPut);
  EXPECT_NEAR(p.indirect[static_cast<int>(InternalOp::kFlush)], 20.0, 1e-9);
}

TEST(ResourceTrackerTest, StatsAccumulateAcrossRolls) {
  ResourceTracker tr;
  tr.RecordIo({7, AppRequest::kGet, InternalOp::kNone}, ssd::IoType::kRead,
              2048, 1.0);
  tr.Roll();
  tr.RecordIo({7, AppRequest::kPut, InternalOp::kNone}, ssd::IoType::kWrite,
              1024, 3.0);
  const TenantIoStats& s = tr.Stats(7);
  EXPECT_EQ(s.read_ops, 1u);
  EXPECT_EQ(s.write_ops, 1u);
  EXPECT_EQ(s.total_bytes(), 3072u);
  EXPECT_NEAR(s.vops, 4.0, 1e-9);
  EXPECT_NEAR(tr.total_vops(), 4.0, 1e-9);
}

TEST(ResourceTrackerTest, MeanRequestSizeSmoothed) {
  ResourceTracker tr(1.0);
  tr.RecordAppRequest(3, AppRequest::kGet, 4096);
  tr.RecordAppRequest(3, AppRequest::kGet, 8192);
  EXPECT_NEAR(tr.MeanRequestSize(3, AppRequest::kGet), 6144.0, 1e-9);
  tr.Roll();
  EXPECT_NEAR(tr.MeanRequestSize(3, AppRequest::kGet), 6144.0, 1e-9);
  EXPECT_EQ(tr.MeanRequestSize(3, AppRequest::kPut), 0.0);
}

TEST(ResourceTrackerTest, NormalizedRequestTotalsAccumulate) {
  ResourceTracker tr;
  tr.RecordAppRequest(5, AppRequest::kPut, 4096);   // 4 normalized
  tr.RecordAppRequest(5, AppRequest::kPut, 512);    // rounds up to 1
  tr.Roll();
  tr.RecordAppRequest(5, AppRequest::kPut, 2048);   // 2 normalized
  EXPECT_NEAR(tr.NormalizedRequestsTotal(5, AppRequest::kPut), 7.0, 1e-9);
}

TEST(ResourceTrackerTest, EwmaSmoothsProfileAcrossIntervals) {
  ResourceTracker tr(0.5);
  auto interval = [&](double cost_per_req) {
    for (int i = 0; i < 10; ++i) {
      tr.RecordAppRequest(1, AppRequest::kGet, 1024);
      tr.RecordIo({1, AppRequest::kGet, InternalOp::kNone}, ssd::IoType::kRead,
                  1024, cost_per_req);
    }
    tr.Roll();
  };
  interval(1.0);
  EXPECT_NEAR(tr.Profile(1, AppRequest::kGet).direct, 1.0, 1e-9);
  interval(3.0);
  // EWMA(0.5): 0.5*3 + 0.5*1 = 2.
  EXPECT_NEAR(tr.Profile(1, AppRequest::kGet).direct, 2.0, 1e-9);
}

TEST(ResourceTrackerTest, SharedIoSlicesAccountedLikePlainIo) {
  ResourceTracker tr(1.0);
  // Two tenants' PUTs ride one batched 8KB write costing 4 VOPs, split
  // 3:1 by bytes (6KB/2KB -> 3.0/1.0 VOPs).
  tr.RecordAppRequest(1, AppRequest::kPut, 6144);
  tr.RecordAppRequest(2, AppRequest::kPut, 2048);
  tr.RecordIoShare({1, AppRequest::kPut, InternalOp::kNone},
                   ssd::IoType::kWrite, 6144, 3.0);
  tr.RecordIoShare({2, AppRequest::kPut, InternalOp::kNone},
                   ssd::IoType::kWrite, 2048, 1.0);
  // Slice accounting is byte-for-byte identical to RecordIo...
  EXPECT_EQ(tr.Stats(1).write_bytes, 6144u);
  EXPECT_EQ(tr.Stats(2).write_bytes, 2048u);
  EXPECT_NEAR(tr.Stats(1).vops, 3.0, 1e-12);
  EXPECT_NEAR(tr.Stats(2).vops, 1.0, 1e-12);
  EXPECT_NEAR(tr.VopsBy(1, AppRequest::kPut, InternalOp::kNone,
                        ssd::IoType::kWrite),
              3.0, 1e-12);
  // ...and it feeds profiles: 3 VOPs over 6 normalized requests = 0.5.
  tr.Roll();
  EXPECT_NEAR(tr.Profile(1, AppRequest::kPut).direct, 0.5, 1e-9);
  // The shared-IO rollup tracks slices and bytes for measurement.
  EXPECT_EQ(tr.shared_io_shares(), 2u);
  EXPECT_EQ(tr.shared_io_bytes(), 8192u);
}

TEST(ResourceTrackerTest, SharedIoCountersZeroWithoutBatching) {
  ResourceTracker tr;
  tr.RecordIo({1, AppRequest::kPut, InternalOp::kNone}, ssd::IoType::kWrite,
              4096, 2.0);
  EXPECT_EQ(tr.shared_io_shares(), 0u);
  EXPECT_EQ(tr.shared_io_bytes(), 0u);
}

// The attribution matrix is a decomposition of the tracker's own bill:
// plain IO and RecordIoShare slices land in each contributor's (app,
// internal) cell, the cells sum to the tenant's VOP total, and the request
// denominators are the tracker's normalized totals.
TEST(ResourceTrackerTest, AttributionDecomposesTrackedVops) {
  ResourceTracker tr;
  EXPECT_FALSE(tr.Attribution(1).has_value());
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const TenantId t = 1 + static_cast<TenantId>(i % 2);
    const auto app = static_cast<AppRequest>(1 + rng.NextU64(3));
    const auto op = static_cast<InternalOp>(rng.NextU64(kNumInternalOps));
    const ssd::IoType type =
        rng.NextU64(2) == 0 ? ssd::IoType::kRead : ssd::IoType::kWrite;
    // Costs with long binary expansions, so re-ordered sums can round
    // differently.
    const double cost = 0.1 + static_cast<double>(rng.NextU64(1000)) / 7.0;
    tr.RecordIo({t, app, op, {}}, type, 4096, cost);
    tr.RecordAppRequest(t, app, 512 + rng.NextU64(8192));
  }
  // A batched write split between both tenants (FLUSH for tenant 1, direct
  // PUT for tenant 2): each share lands in its contributor's cell.
  const double before1 =
      tr.Attribution(1)->vops[static_cast<int>(AppRequest::kPut)]
                             [static_cast<int>(InternalOp::kFlush)];
  const double before2 =
      tr.Attribution(2)->vops[static_cast<int>(AppRequest::kPut)]
                             [static_cast<int>(InternalOp::kNone)];
  tr.RecordIoShare({1, AppRequest::kPut, InternalOp::kFlush, {}},
                   ssd::IoType::kWrite, 6144, 3.0);
  tr.RecordIoShare({2, AppRequest::kPut, InternalOp::kNone, {}},
                   ssd::IoType::kWrite, 2048, 1.0);
  EXPECT_NEAR(tr.Attribution(1)->vops[static_cast<int>(AppRequest::kPut)]
                                     [static_cast<int>(InternalOp::kFlush)],
              before1 + 3.0, 1e-9);
  EXPECT_NEAR(tr.Attribution(2)->vops[static_cast<int>(AppRequest::kPut)]
                                     [static_cast<int>(InternalOp::kNone)],
              before2 + 1.0, 1e-9);

  for (const TenantId t : {TenantId{1}, TenantId{2}}) {
    const std::optional<obs::AttributionMatrix> m = tr.Attribution(t);
    ASSERT_TRUE(m.has_value());
    const double vops = tr.Stats(t).vops;
    EXPECT_EQ(m->total_vops, vops);
    EXPECT_NEAR(m->CellSum(), vops, 1e-12 * vops) << "tenant " << t;
    for (int a = 0; a < kNumAppRequests; ++a) {
      EXPECT_EQ(m->norm_requests[a],
                tr.NormalizedRequestsTotal(t, static_cast<AppRequest>(a)));
    }
  }
}

TEST(ResourceTrackerTest, TenantsEnumerated) {
  ResourceTracker tr;
  tr.RecordAppRequest(1, AppRequest::kGet, 1024);
  tr.RecordAppRequest(9, AppRequest::kPut, 1024);
  const auto ids = tr.tenants();
  EXPECT_EQ(ids.size(), 2u);
}

// Slots are dense and follow arrival; ranks and by_id() follow ids.
TEST(TenantSlotsTest, ArrivalOrderSlotsIdOrderRanks) {
  TenantSlots slots;
  EXPECT_EQ(slots.Find(900), TenantSlot::kNone);
  const std::vector<TenantId> arrival = {900, 3, 4000000000u, 17};
  for (size_t i = 0; i < arrival.size(); ++i) {
    EXPECT_EQ(SlotIndex(slots.Assign(arrival[i])), i);
  }
  EXPECT_EQ(SlotIndex(slots.Assign(3)), 1u);  // already assigned
  EXPECT_EQ(slots.size(), 4u);
  EXPECT_EQ(SlotIndex(slots.Find(17)), 3u);
  EXPECT_EQ(slots.Find(4), TenantSlot::kNone);
  const std::vector<TenantId> by_id = {3, 17, 900, 4000000000u};
  for (size_t rank = 0; rank < by_id.size(); ++rank) {
    EXPECT_EQ(slots.by_id()[rank].id, by_id[rank]);
    EXPECT_EQ(slots.RankOf(slots.by_id()[rank].slot), rank);
  }
}

}  // namespace
}  // namespace libra::iosched
