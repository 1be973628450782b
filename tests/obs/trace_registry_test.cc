#include <gtest/gtest.h>

#include <cstdint>

#include "src/obs/audit.h"
#include "src/obs/registry.h"

namespace libra::obs {
namespace {

TEST(MetricsRegistryTest, FindOrCreateAndStableRefs) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("ops", {1, 1, 0});
  c.Add();
  c.Add(2.5);
  // Same key returns the same object; different key a different one.
  EXPECT_EQ(&reg.GetCounter("ops", {1, 1, 0}), &c);
  EXPECT_NE(&reg.GetCounter("ops", {2, 1, 0}), &c);
  EXPECT_DOUBLE_EQ(reg.GetCounter("ops", {1, 1, 0}).value(), 3.5);

  Gauge& g = reg.GetGauge("depth");
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("depth").value(), 7.0);

  LatencyHistogram& h = reg.GetHistogram("lat", {1, 2, 0});
  h.Record(100);
  EXPECT_EQ(reg.GetHistogram("lat", {1, 2, 0}).count(), 1u);

  // Find does not create.
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_NE(reg.FindCounter("ops", {1, 1, 0}), nullptr);
  EXPECT_EQ(reg.FindHistogram("lat", {9, 9, 9}), nullptr);
  EXPECT_EQ(reg.num_series(), 4u);

  int histograms_seen = 0;
  reg.ForEachHistogram([&](const std::string& name, const SeriesKey& key,
                           const LatencyHistogram& hist) {
    EXPECT_EQ(name, "lat");
    EXPECT_EQ(key.tenant, 1u);
    EXPECT_EQ(hist.count(), 1u);
    ++histograms_seen;
  });
  EXPECT_EQ(histograms_seen, 1);
}

TEST(ProvisioningAuditLogTest, BoundedRetention) {
  ProvisioningAuditLog log(/*max_records=*/3);
  for (int i = 0; i < 7; ++i) {
    AuditRecord rec;
    rec.time_ns = i;
    log.Append(std::move(rec));
  }
  EXPECT_EQ(log.total_appended(), 7u);
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().front().time_ns, 4);
  EXPECT_EQ(log.back().time_ns, 6);
}

}  // namespace
}  // namespace libra::obs
