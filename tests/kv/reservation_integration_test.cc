// End-to-end integration of the paper's headline property: tenants with
// app-request reservations, backlogged together on one node, each achieve
// their reserved normalized GET/PUT rates — across the full stack (LSM
// amplification -> tagged IO -> tracker profiles -> policy -> DRR
// scheduler -> simulated SSD).

#include <gtest/gtest.h>

#include <memory>

#include "src/iosched/capacity.h"
#include "src/kv/storage_node.h"
#include "src/sim/sync.h"
#include "src/workload/workload.h"

namespace libra::kv {
namespace {

using iosched::AppRequest;
using iosched::Reservation;
using iosched::TenantId;

ssd::CalibrationTable IntegrationTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

TEST(ReservationIntegrationTest, ContendingTenantsMeetReservations) {
  sim::EventLoop loop;
  NodeOptions opt;
  opt.calibration = IntegrationTable();
  opt.prefill_bytes = 0;
  StorageNode node(loop, opt);

  // Tenant 1: GET-heavy small objects. Tenant 2: PUT-heavy large objects.
  ASSERT_TRUE(node.AddTenant(1, Reservation{}).ok());
  ASSERT_TRUE(node.AddTenant(2, Reservation{}).ok());

  workload::KvWorkloadSpec spec1;
  spec1.get_fraction = 0.9;
  spec1.get_size = {4096.0, 1024.0};
  spec1.put_size = {16384.0, 1024.0};
  spec1.live_bytes_target = 8 * kMiB;
  spec1.workers = 8;
  workload::KvTenantWorkload wl1(loop, node, 1, spec1, 51);

  workload::KvWorkloadSpec spec2;
  spec2.get_fraction = 0.1;
  spec2.get_size = {65536.0, 1024.0};
  spec2.put_size = {65536.0, 1024.0};
  spec2.live_bytes_target = 12 * kMiB;
  spec2.workers = 8;
  workload::KvTenantWorkload wl2(loop, node, 2, spec2, 52);

  {
    sim::TaskGroup preload(loop);
    preload.Spawn(wl1.Preload());
    preload.Spawn(wl2.Preload());
    loop.Run();
  }
  node.Start();

  const SimTime t0 = loop.Now();
  const SimTime t_reserve = t0 + 15 * kSecond;   // profiles built
  const SimTime t_measure = t_reserve + 5 * kSecond;
  const SimTime t_end = t_measure + 20 * kSecond;

  // After profiling, reserve ~35% of the floor for each tenant (safely
  // feasible; contention still forces the scheduler to arbitrate).
  Reservation res1;
  Reservation res2;
  loop.ScheduleAt(t_reserve, [&] {
    for (const TenantId t : {TenantId{1}, TenantId{2}}) {
      const double price_get =
          node.policy().ProfileOf(t, AppRequest::kGet).total();
      const double price_put =
          node.policy().ProfileOf(t, AppRequest::kPut).total();
      const double target = 0.35 * node.capacity().provisionable();
      const auto& spec = t == 1 ? spec1 : spec2;
      const double ratio = (spec.get_fraction * spec.get_size.mean_bytes) /
                           ((1.0 - spec.get_fraction) * spec.put_size.mean_bytes);
      const double v_put = target / (ratio * price_get + price_put);
      Reservation r{ratio * v_put, v_put};
      (t == 1 ? res1 : res2) = r;
      EXPECT_TRUE(node.UpdateReservation(t, r).ok());
    }
  });

  double g1 = 0.0, p1 = 0.0, g2 = 0.0, p2 = 0.0;
  loop.ScheduleAt(t_measure, [&] {
    g1 = node.tracker().NormalizedRequestsTotal(1, AppRequest::kGet);
    p1 = node.tracker().NormalizedRequestsTotal(1, AppRequest::kPut);
    g2 = node.tracker().NormalizedRequestsTotal(2, AppRequest::kGet);
    p2 = node.tracker().NormalizedRequestsTotal(2, AppRequest::kPut);
  });
  double g1e = 0.0, p1e = 0.0, g2e = 0.0, p2e = 0.0;
  loop.ScheduleAt(t_end, [&] {
    g1e = node.tracker().NormalizedRequestsTotal(1, AppRequest::kGet);
    p1e = node.tracker().NormalizedRequestsTotal(1, AppRequest::kPut);
    g2e = node.tracker().NormalizedRequestsTotal(2, AppRequest::kGet);
    p2e = node.tracker().NormalizedRequestsTotal(2, AppRequest::kPut);
  });

  {
    sim::TaskGroup group(loop);
    wl1.Start(group, t_end);
    wl2.Start(group, t_end);
    loop.RunUntil(t_end + kSecond);
    node.Stop();
    loop.Run();
  }

  const double secs = ToSeconds(t_end - t_measure);
  const double rate_g1 = (g1e - g1) / secs;
  const double rate_p1 = (p1e - p1) / secs;
  const double rate_g2 = (g2e - g2) / secs;
  const double rate_p2 = (p2e - p2) / secs;

  // Every reservation achieved within a 10% band.
  EXPECT_GE(rate_g1, 0.9 * res1.get_rps())
      << rate_g1 << " vs " << res1.get_rps();
  EXPECT_GE(rate_p1, 0.9 * res1.put_rps())
      << rate_p1 << " vs " << res1.put_rps();
  EXPECT_GE(rate_g2, 0.9 * res2.get_rps())
      << rate_g2 << " vs " << res2.get_rps();
  EXPECT_GE(rate_p2, 0.9 * res2.put_rps())
      << rate_p2 << " vs " << res2.put_rps();

  // Sanity: the reservations were non-trivial (at least hundreds of
  // normalized requests per second each).
  EXPECT_GT(res1.get_rps(), 500.0);
  EXPECT_GT(res2.put_rps(), 200.0);

  // The observability snapshot saw the same run: both tenants' GET and PUT
  // latency histograms are populated with sane percentiles, and the policy
  // left one audit record per provisioning interval.
  const NodeStats snap = node.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 2u);
  for (const TenantSnapshot& t : snap.tenants) {
    SCOPED_TRACE(t.tenant);
    EXPECT_GT(t.get_latency.count(), 0u);
    EXPECT_GT(t.put_latency.count(), 0u);
    for (const obs::LatencyHistogram* h : {&t.get_latency, &t.put_latency}) {
      const uint64_t p50 = h->Percentile(0.5);
      const uint64_t p99 = h->Percentile(0.99);
      EXPECT_GT(p50, 0u);
      EXPECT_GE(p99, p50);
      EXPECT_LE(p99, static_cast<uint64_t>(t_end));  // bounded by the run
    }
    EXPECT_GT(t.io_total.ops, 0u);
  }
  ASSERT_FALSE(snap.audit.empty());
  EXPECT_GT(snap.audit.back().scale, 0.0);
  EXPECT_LE(snap.audit.back().scale, 1.0);
}

TEST(ReservationIntegrationTest, OverbookedReservationsAuditedAndScaled) {
  // Reservations far beyond the capacity floor: the policy must scale every
  // grant down proportionally and record the overbooking in the audit log.
  sim::EventLoop loop;
  NodeOptions opt;
  opt.calibration = IntegrationTable();
  opt.prefill_bytes = 0;
  StorageNode node(loop, opt);

  ASSERT_TRUE(node.AddTenant(1, Reservation{60000.0, 30000.0}).ok());
  ASSERT_TRUE(node.AddTenant(2, Reservation{30000.0, 60000.0}).ok());
  node.Start();
  loop.RunUntil(3 * kSecond);
  node.Stop();
  loop.Run();

  const auto& log = node.policy().audit_log();
  ASSERT_GT(log.records().size(), 1u);
  const obs::AuditRecord& rec = log.back();
  EXPECT_TRUE(rec.overbooked);
  EXPECT_GT(rec.total_required_vops, rec.capacity_floor_vops);
  EXPECT_GT(rec.scale, 0.0);
  EXPECT_LT(rec.scale, 1.0);
  // scale is exactly the proportional cut the policy applied.
  EXPECT_NEAR(rec.scale, rec.capacity_floor_vops / rec.total_required_vops,
              1e-9);
  ASSERT_EQ(rec.tenants.size(), 2u);
  double granted_total = 0.0;
  for (const obs::AuditTenantEntry& e : rec.tenants) {
    SCOPED_TRACE(e.tenant);
    EXPECT_GT(e.required_vops, 0.0);
    EXPECT_NEAR(e.granted_vops, e.required_vops * rec.scale,
                1e-9 * e.required_vops);
    EXPECT_LT(e.granted_vops, e.required_vops);
    granted_total += e.granted_vops;
    // The scheduler really received the scaled-down grant.
    EXPECT_NEAR(node.scheduler().Allocation(e.tenant), e.granted_vops,
                1e-9 * e.granted_vops);
  }
  // Grants sum to (at most) the floor — nothing over-promised.
  EXPECT_LE(granted_total, rec.capacity_floor_vops * (1.0 + 1e-9));
}

}  // namespace
}  // namespace libra::kv
