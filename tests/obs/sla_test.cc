#include "src/obs/sla.h"

#include <gtest/gtest.h>

namespace libra::obs {
namespace {

TEST(SlaMonitorTest, ViolationRequiresDemandAndShortfall) {
  SlaMonitor sla;
  // Achieved >= reserved: fine.
  EXPECT_FALSE(sla.RecordInterval(/*slot=*/0, 1, 1'000'000, 100.0, 120.0,
                                  /*demand_pending=*/true, 0.05));
  // Short but within tolerance: fine.
  EXPECT_FALSE(
      sla.RecordInterval(/*slot=*/0, 1, 2'000'000, 100.0, 96.0, true, 0.05));
  // Short beyond tolerance with demand: violation.
  EXPECT_TRUE(
      sla.RecordInterval(/*slot=*/0, 1, 3'000'000, 100.0, 50.0, true, 0.05));
  // Same shortfall, no pending demand: the tenant just wasn't asking.
  EXPECT_FALSE(
      sla.RecordInterval(/*slot=*/0, 1, 4'000'000, 100.0, 50.0, false, 0.05));

  const SlaMonitor::TenantSla* t = sla.Of(1);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->intervals, 4u);
  EXPECT_EQ(t->violations, 1u);
  EXPECT_DOUBLE_EQ(t->violation_rate(), 0.25);
  EXPECT_FALSE(t->last_violated);
  EXPECT_EQ(t->last_time_ns, 4'000'000);
}

TEST(SlaMonitorTest, ZeroReservationNeverTracked) {
  SlaMonitor sla;
  EXPECT_FALSE(
      sla.RecordInterval(/*slot=*/0, 2, 1'000'000, 0.0, 0.0, true, 0.05));
  const SlaMonitor::TenantSla* t = sla.Of(2);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->intervals, 0u);  // best-effort tenants have no SLA
  EXPECT_EQ(t->violations, 0u);
}

TEST(SlaMonitorTest, TenantsListsDeterministically) {
  SlaMonitor sla;
  sla.RecordInterval(/*slot=*/0, 9, 1, 10.0, 10.0, true, 0.05);
  sla.RecordInterval(/*slot=*/1, 3, 1, 10.0, 10.0, true, 0.05);
  const std::vector<uint32_t> ts = sla.tenants();
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0], 3u);
  EXPECT_EQ(ts[1], 9u);
}

}  // namespace
}  // namespace libra::obs
