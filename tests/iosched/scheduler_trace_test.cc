// Scheduler-level span emission and attribution conservation: device-IO
// spans parent to the submitting context, WriteShared manifests spread
// their contexts into links, each device-IO span carries its op's queue
// wait, and the tracker-derived attribution matrix decomposes the
// ResourceTracker's per-tenant VOP total.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/obs/span.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/calibration.h"
#include "src/ssd/device.h"
#include "src/ssd/ftl.h"
#include "src/ssd/profile.h"

namespace libra::iosched {
namespace {

// One shared calibration for the whole file, computed on first use.
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

  explicit Rig(size_t span_capacity = 1 << 12)
      : device(loop, Preconditioned()),
        sched(loop, device, std::make_unique<ExactCostModel>(Table()), [&] {
          SchedulerOptions o;
          o.span_capacity = span_capacity;
          return o;
        }()) {}
};

TEST(SchedulerTraceTest, DeviceIoSpanParentsToSubmitterContext) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  obs::SpanCollector* spans = rig.sched.spans();
  ASSERT_NE(spans, nullptr);
  const TraceContext req = spans->MintTrace();
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone, req}, 0,
                            4096);
  };
  sim::Detach(t());
  rig.loop.Run();

  const std::vector<obs::SpanRecord> recs = spans->Spans();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, obs::SpanKind::kDeviceIo);
  EXPECT_EQ(recs[0].trace_id, req.trace_id);
  EXPECT_EQ(recs[0].parent_span, req.span_id);
  EXPECT_EQ(recs[0].tenant, 0u);
  EXPECT_EQ(recs[0].is_write, 0);
  EXPECT_EQ(recs[0].bytes, 4096u);
  EXPECT_GT(recs[0].vops, 0.0);
  EXPECT_GT(recs[0].end_ns, recs[0].start_ns);
}

TEST(SchedulerTraceTest, UntracedIoEmitsNoSpan) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone}, 0, 4096);
  };
  sim::Detach(t());
  rig.loop.Run();
  EXPECT_EQ(rig.sched.spans()->total_recorded(), 0u);
}

TEST(SchedulerTraceTest, WriteSharedLinksFollowerContexts) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  rig.sched.SetAllocation(1, 1000.0);
  obs::SpanCollector* spans = rig.sched.spans();
  const TraceContext leader = spans->MintTrace();
  const TraceContext follower = spans->MintTrace();
  auto t = [&]() -> sim::Task<void> {
    std::vector<IoShare> manifest;
    manifest.push_back(
        {IoTag{.tenant = 0, .app = AppRequest::kPut, .ctx = leader}, 4096});
    manifest.push_back(
        {IoTag{.tenant = 1, .app = AppRequest::kPut, .ctx = follower}, 4096});
    co_await rig.sched.WriteShared(0, 8192, std::move(manifest));
  };
  sim::Detach(t());
  rig.loop.Run();

  const std::vector<obs::SpanRecord> recs = spans->Spans();
  ASSERT_EQ(recs.size(), 1u);
  // One span for the merged IOP: parented on the leader, follower linked.
  EXPECT_EQ(recs[0].trace_id, leader.trace_id);
  EXPECT_EQ(recs[0].parent_span, leader.span_id);
  ASSERT_EQ(recs[0].links.count, 1u);
  EXPECT_EQ(recs[0].links.items[0].trace_id, follower.trace_id);
  EXPECT_EQ(recs[0].is_write, 1);
}

// The conservation invariant the whole attribution pipeline hangs off:
// the matrix is read straight off the tracker's counters (bitwise), and its
// cells re-order the tracker's additions, so they sum to its VOP total up
// to rounding — across plain reads and writes, chunked large ops, and
// WriteShared cost splits.
TEST(SchedulerTraceTest, AttributionTotalsMatchTrackerBitForBit) {
  Rig rig;
  for (TenantId t = 0; t < 3; ++t) {
    rig.sched.SetAllocation(t, 1000.0);
  }
  obs::SpanCollector* spans = rig.sched.spans();
  Rng rng(77);
  auto worker = [&](TenantId tenant) -> sim::Task<void> {
    for (int i = 0; i < 40; ++i) {
      const uint32_t size = 1024u << rng.NextU64(8);  // 1KB .. 128KB+
      const uint64_t offset = rng.NextU64(1ULL * kGiB / size) * size;
      IoTag tag{.tenant = tenant,
                .app = i % 2 == 0 ? AppRequest::kGet : AppRequest::kPut,
                .internal =
                    i % 3 == 0 ? InternalOp::kCompact : InternalOp::kNone,
                .ctx = spans->MintTrace()};
      if (i % 2 == 0) {
        co_await rig.sched.Read(tag, offset, size);
      } else {
        co_await rig.sched.Write(tag, offset, size);
      }
    }
    // A shared write splitting cost across two tenants (uneven bytes).
    std::vector<IoShare> manifest;
    manifest.push_back(
        {IoTag{.tenant = tenant,
               .app = AppRequest::kPut,
               .ctx = spans->MintTrace()},
         1024});
    manifest.push_back({IoTag{.tenant = static_cast<TenantId>((tenant + 1) % 3),
                              .app = AppRequest::kPut,
                              .ctx = spans->MintTrace()},
                        7168});
    co_await rig.sched.WriteShared(0, 8192, std::move(manifest));
  };
  {
    sim::TaskGroup group(rig.loop);
    for (TenantId t = 0; t < 3; ++t) {
      group.Spawn(worker(t));
    }
    rig.loop.Run();
  }

  const ResourceTracker& tracker = rig.sched.tracker();
  for (TenantId t = 0; t < 3; ++t) {
    const std::optional<obs::AttributionMatrix> m = tracker.Attribution(t);
    ASSERT_TRUE(m.has_value());
    const double vops = tracker.Stats(t).vops;
    EXPECT_GT(vops, 0.0);
    EXPECT_EQ(m->total_vops, vops) << "tenant " << t;
    for (int a = 0; a < kNumAppRequests; ++a) {
      const auto app = static_cast<AppRequest>(a);
      EXPECT_EQ(m->norm_requests[a], tracker.NormalizedRequestsTotal(t, app));
      for (int i = 0; i < kNumInternalOps; ++i) {
        const auto op = static_cast<InternalOp>(i);
        EXPECT_EQ(m->vops[a][i],
                  tracker.VopsBy(t, app, op, ssd::IoType::kRead) +
                      tracker.VopsBy(t, app, op, ssd::IoType::kWrite));
      }
    }
    EXPECT_NEAR(m->CellSum(), vops, 1e-12 * vops) << "tenant " << t;
  }
}

// The per-op lifecycle trace: a throttled tenant's device-IO spans each
// carry the op's queue wait (submit -> first dispatch), the same sample the
// scheduler's lifecycle histogram records, so the spans' total and maximum
// reproduce the tenant's lifecycle queue-wait statistics for the class.
TEST(SchedulerTraceTest, DeviceIoSpansCarryQueueWait) {
  Rig rig;
  rig.sched.SetAllocation(0, 9000.0);
  rig.sched.SetAllocation(1, 1000.0);  // throttled: 10% of the device
  obs::SpanCollector* spans = rig.sched.spans();
  Rng rng(5);
  auto worker = [&](TenantId tenant) -> sim::Task<void> {
    for (int i = 0; i < 25; ++i) {
      const uint64_t offset = rng.NextU64(1ULL * kGiB / 4096) * 4096;
      co_await rig.sched.Read(
          {tenant, AppRequest::kGet, InternalOp::kNone, spans->MintTrace()},
          offset, 4096);
    }
  };
  {
    sim::TaskGroup group(rig.loop);
    for (int w = 0; w < 8; ++w) {
      group.Spawn(worker(0));
      group.Spawn(worker(1));
    }
    rig.loop.Run();
  }

  const obs::IoClassStats* cls =
      rig.sched.lifecycle(1)->of(AppRequest::kGet, InternalOp::kNone);
  ASSERT_NE(cls, nullptr);
  uint64_t count = 0;
  uint64_t max_wait = 0;
  double total_wait = 0.0;  // summed in completion order, like the histogram
  for (const obs::SpanRecord& s : spans->Spans()) {
    ASSERT_EQ(s.kind, obs::SpanKind::kDeviceIo);
    EXPECT_LE(s.queue_wait_ns, static_cast<uint64_t>(s.end_ns - s.start_ns));
    if (s.tenant != 1) {
      continue;
    }
    ++count;
    max_wait = std::max(max_wait, s.queue_wait_ns);
    total_wait += static_cast<double>(s.queue_wait_ns);
  }
  ASSERT_EQ(spans->dropped(), 0u);
  EXPECT_EQ(count, cls->ops);
  EXPECT_EQ(count, 200u);
  EXPECT_GT(total_wait, 0.0);  // the tenant really was throttled
  EXPECT_EQ(total_wait, cls->queue_wait.sum());
  EXPECT_EQ(max_wait, cls->queue_wait.max());
}

TEST(SchedulerTraceTest, SampledOutRequestsStillFeedAttribution) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  SchedulerOptions o;
  o.span_capacity = 1 << 10;
  o.span_sample_every = 1000;  // nothing but the first trace sampled
  sim::EventLoop loop2;
  ssd::SsdDevice device2(loop2, Preconditioned());
  IoScheduler sched2(loop2, device2, std::make_unique<ExactCostModel>(Table()),
                     o);
  sched2.SetAllocation(0, 1000.0);
  auto t = [&]() -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      // Mint per request as the node does: most come back invalid.
      co_await sched2.Read(
          {0, AppRequest::kGet, InternalOp::kNone, sched2.spans()->MintTrace()},
          static_cast<uint64_t>(i) * 4096, 4096);
    }
  };
  sim::Detach(t());
  loop2.Run();
  // Attribution saw all 8 IOs even though at most one span was recorded:
  // sampling gates span recording, never the tracker's accounting.
  const std::optional<obs::AttributionMatrix> m =
      sched2.tracker().Attribution(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(sched2.tracker().Stats(0).read_ops, 8u);
  EXPECT_GT(m->vops[static_cast<int>(AppRequest::kGet)]
                   [static_cast<int>(InternalOp::kNone)],
            0.0);
  EXPECT_LE(sched2.spans()->total_recorded(), 1u);
}

TEST(SchedulerTraceTest, HasDemandReflectsQueuedWork) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  EXPECT_FALSE(rig.sched.HasDemand(0));
  bool checked = false;
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone}, 0, 4096);
  };
  sim::Detach(t());
  rig.loop.ScheduleAt(1, [&] {
    checked = true;
    EXPECT_TRUE(rig.sched.HasDemand(0));
  });
  rig.loop.Run();
  EXPECT_TRUE(checked);
  EXPECT_FALSE(rig.sched.HasDemand(0));
}

}  // namespace
}  // namespace libra::iosched
