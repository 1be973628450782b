// Node-level tracing and monitoring: request spans (including coalesced-GET
// followers), full-stack VOP conservation through WAL group commit, flush
// and compaction fan-in, attribution-conformance verdicts, SLA tracking,
// and the stats-JSON surface for all of it.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/kv/node_stats.h"
#include "src/kv/storage_node.h"
#include "src/obs/span.h"
#include "src/workload/workload.h"
#include "tests/support/json_parse.h"

namespace libra::kv {
namespace {

using iosched::AppRequest;
using iosched::InternalOp;
using iosched::TenantId;

ssd::CalibrationTable NodeTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050,
                      1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000,
                       610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

NodeOptions TraceOptions() {
  NodeOptions opt;
  opt.calibration = NodeTable();
  opt.lsm_options.write_buffer_bytes = 32 * 1024;
  opt.lsm_options.target_file_bytes = 32 * 1024;
  opt.lsm_options.l0_compaction_trigger = 2;
  opt.lsm_options.max_bytes_level1 = 64 * 1024;
  opt.lsm_options.wal_group_commit = true;  // WAL shares in the mix
  opt.prefill_bytes = 64 * kMiB;
  opt.scheduler_options.span_capacity = 1 << 14;
  return opt;
}

struct NodeRig {
  sim::EventLoop loop;
  StorageNode node;

  explicit NodeRig(NodeOptions opt = TraceOptions()) : node(loop, opt) {}

  void RunTask(sim::Task<void> t) {
    sim::Detach(std::move(t));
    loop.Run();
  }
};

std::string Val(int i) { return std::string(700, 'a' + (i % 26)); }

// TaskGroup-spawned coroutines are free functions with by-value params
// (DESIGN.md §4): a GET that expects success, used by the coalescing test.
sim::Task<void> GetExpectOk(StorageNode* node, TenantId tenant,
                            std::string key) {
  const auto r = co_await node->Get(tenant, key);
  EXPECT_TRUE(r.status().ok());
}

// Two concurrent writers plus a reader: churn that flushes, compacts, and
// group-commits WAL batches across both tenants.
sim::Task<void> Churn(StorageNode* node, TenantId tenant, int n) {
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        (co_await node->Put(tenant, "k" + std::to_string(i % 30), Val(i)))
            .ok());
    if (i % 4 == 0) {
      (void)co_await node->Get(tenant, "k" + std::to_string(i % 30));
    }
  }
}

TEST(NodeTraceTest, RequestSpansRecordedPerAppRequest) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {500.0, 500.0}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.node.Put(1, "k", "v")).ok());
    (void)co_await rig.node.Get(1, "k");
  }());

  int puts = 0, gets = 0;
  for (const obs::SpanRecord& s : rig.node.scheduler().spans()->Spans()) {
    if (s.kind != obs::SpanKind::kRequest) {
      continue;
    }
    if (s.app == static_cast<uint8_t>(AppRequest::kPut)) {
      ++puts;
    } else if (s.app == static_cast<uint8_t>(AppRequest::kGet)) {
      ++gets;
    }
    EXPECT_EQ(s.tenant, 1u);
    EXPECT_GE(s.end_ns, s.start_ns);
  }
  EXPECT_EQ(puts, 1);
  EXPECT_EQ(gets, 1);
}

TEST(NodeTraceTest, CoalescedFollowerSpanLinksLeader) {
  NodeOptions opt = TraceOptions();
  opt.enable_read_coalescing = true;
  NodeRig rig(opt);
  ASSERT_TRUE(rig.node.AddTenant(1, {500.0, 500.0}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.node.Put(1, "hot", std::string(4096, 'x'))).ok());
    // Overflow the write buffer so "hot" is served from an SSTable — a
    // memtable hit completes without suspending and leaves nothing to ride.
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          (co_await rig.node.Put(1, "fill" + std::to_string(i), Val(i))).ok());
    }
    co_await rig.node.partition(1)->WaitIdle();
    // Two concurrent GETs of the same key: the second rides the first.
    sim::TaskGroup group(rig.loop);
    for (int i = 0; i < 2; ++i) {
      group.Spawn(GetExpectOk(&rig.node, 1, "hot"));
    }
    co_await group.Join();
  }());

  ASSERT_GT(rig.node.coalesced_gets(), 0u);
  int followers = 0;
  for (const obs::SpanRecord& s : rig.node.scheduler().spans()->Spans()) {
    if (s.kind == obs::SpanKind::kCoalescedGet) {
      ++followers;
      EXPECT_GT(s.links.total, 0u) << "follower span must link its leader";
    }
  }
  EXPECT_GT(followers, 0);
}

// Full-stack conservation: after churn that exercises WAL group commit
// (shared IOPs), flushes and multi-table compactions, the attribution cells
// still sum to the ResourceTracker's per-tenant VOP total.
TEST(NodeTraceTest, AttributionConservesVopsThroughFullStack) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {500.0, 500.0}).ok());
  ASSERT_TRUE(rig.node.AddTenant(2, {500.0, 500.0}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    sim::TaskGroup group(rig.loop);
    group.Spawn(Churn(&rig.node, 1, 150));
    group.Spawn(Churn(&rig.node, 2, 150));
    co_await group.Join();
    co_await rig.node.partition(1)->WaitIdle();
    co_await rig.node.partition(2)->WaitIdle();
  }());

  // The churn must actually have exercised the background paths.
  EXPECT_GT(rig.node.partition(1)->stats().compactions, 0u);
  EXPECT_GT(rig.node.partition(1)->stats().wal_batches, 0u);
  for (TenantId t : {TenantId{1}, TenantId{2}}) {
    const std::optional<obs::AttributionMatrix> m =
        rig.node.tracker().Attribution(t);
    ASSERT_TRUE(m.has_value());
    const double vops = rig.node.tracker().Stats(t).vops;
    EXPECT_NEAR(m->CellSum(), vops, 1e-12 * vops) << "tenant " << t;
    // And the request denominators are populated.
    EXPECT_GT(m->norm_requests[static_cast<int>(AppRequest::kPut)], 0.0);
    EXPECT_GT(m->norm_requests[static_cast<int>(AppRequest::kGet)], 0.0);
  }
}

// SCANs carry their own attribution column, and the per-class matrix still
// sums to the tracker's VOP total under both compaction policies. A
// scan-mixed churn, one tenant per policy.
sim::Task<void> ScanChurn(StorageNode* node, TenantId tenant, int n) {
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        (co_await node->Put(tenant, "k" + std::to_string(i % 40), Val(i)))
            .ok());
    if (i % 3 == 0) {
      const auto r = co_await node->Scan(tenant, "k", std::string(), 8);
      EXPECT_TRUE(r.status.ok());
      EXPECT_GT(r.entries.size(), 0u);
    }
    if (i % 5 == 0) {
      (void)co_await node->Get(tenant, "k" + std::to_string(i % 40));
    }
  }
}

TEST(NodeTraceTest, ScanAttributionConservesVopsUnderBothPolicies) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {500.0, 500.0, 200.0}, {},
                                 lsm::CompactionPolicy::kLeveled)
                  .ok());
  ASSERT_TRUE(rig.node.AddTenant(2, {500.0, 500.0, 200.0}, {},
                                 lsm::CompactionPolicy::kSizeTiered)
                  .ok());
  rig.RunTask([&]() -> sim::Task<void> {
    sim::TaskGroup group(rig.loop);
    group.Spawn(ScanChurn(&rig.node, 1, 400));
    group.Spawn(ScanChurn(&rig.node, 2, 400));
    co_await group.Join();
    co_await rig.node.partition(1)->WaitIdle();
    co_await rig.node.partition(2)->WaitIdle();
  }());

  EXPECT_GT(rig.node.partition(1)->stats().scans, 0u);
  EXPECT_GT(rig.node.partition(2)->stats().scans, 0u);
  // The size-tiered tenant's churn must actually have exercised its picker.
  EXPECT_GT(rig.node.partition(2)->stats().compactions, 0u);
  for (TenantId t : {TenantId{1}, TenantId{2}}) {
    const std::optional<obs::AttributionMatrix> m =
        rig.node.tracker().Attribution(t);
    ASSERT_TRUE(m.has_value());
    // Conservation: per-class attribution sums to the tracker's admitted
    // VOPs up to summation order, scans included.
    const double vops = rig.node.tracker().Stats(t).vops;
    EXPECT_NEAR(m->CellSum(), vops, 1e-12 * vops) << "tenant " << t;
    EXPECT_GT(m->norm_requests[static_cast<int>(AppRequest::kScan)], 0.0)
        << "tenant " << t;
    EXPECT_GT(m->norm_requests[static_cast<int>(AppRequest::kGet)], 0.0);
    EXPECT_GT(m->norm_requests[static_cast<int>(AppRequest::kPut)], 0.0);
  }
}

// Conformance verdicts: a profile measured from an identical run conforms;
// one that hides write amplification is flagged.
TEST(NodeTraceTest, ConformanceVerdictsInSnapshot) {
  // Calibration: measure tenant 1's q̂ with no declaration.
  obs::DeclaredAttribution honest;
  {
    NodeRig rig;
    ASSERT_TRUE(rig.node.AddTenant(1, {500.0, 500.0}).ok());
    rig.RunTask([&]() -> sim::Task<void> {
      co_await Churn(&rig.node, 1, 150);
      co_await rig.node.partition(1)->WaitIdle();
    }());
    const std::optional<obs::AttributionMatrix> m =
        rig.node.tracker().Attribution(1);
    ASSERT_TRUE(m.has_value());
    honest.declared = true;
    for (int a = 0; a < obs::kAttrApps; ++a) {
      for (int i = 0; i < obs::kAttrInternal; ++i) {
        honest.at(a, i) = m->Q(a, i);
      }
    }
  }
  obs::DeclaredAttribution lying = honest;
  lying.at(static_cast<int>(AppRequest::kPut),
           static_cast<int>(InternalOp::kFlush)) = 0.0;
  lying.at(static_cast<int>(AppRequest::kPut),
           static_cast<int>(InternalOp::kCompact)) = 0.0;

  // Identical run, profiles declared: tenant 1 honest, tenant 2 lying gets
  // the honest tenant's actual workload too (same churn, same seed).
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {500.0, 500.0}, honest).ok());
  ASSERT_TRUE(rig.node.AddTenant(2, {500.0, 500.0}, lying).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    sim::TaskGroup group(rig.loop);
    group.Spawn(Churn(&rig.node, 1, 150));
    group.Spawn(Churn(&rig.node, 2, 150));
    co_await group.Join();
    co_await rig.node.partition(1)->WaitIdle();
    co_await rig.node.partition(2)->WaitIdle();
  }());

  const NodeStats stats = rig.node.Snapshot();
  ASSERT_EQ(stats.tenants.size(), 2u);
  const TenantSnapshot& t1 = stats.tenants[0];
  const TenantSnapshot& t2 = stats.tenants[1];
  EXPECT_TRUE(t1.attribution.observed);
  EXPECT_TRUE(t1.attribution.declared.declared);
  EXPECT_TRUE(t1.attribution.conformant)
      << "divergence " << t1.attribution.report.divergence;
  EXPECT_FALSE(t2.attribution.conformant);
  EXPECT_GT(t2.attribution.report.divergence,
            t1.attribution.report.divergence);
}

// Attribution is derived from the tracker, so q̂ and the conformance verdict
// are in the snapshot with span collection off — and match the traced run's
// exactly (tracing never changes the simulation).
TEST(NodeTraceTest, SnapshotAttributionWithSpansOff) {
  obs::DeclaredAttribution lying;
  lying.declared = true;
  lying.at(static_cast<int>(AppRequest::kPut),
           static_cast<int>(InternalOp::kNone)) = 0.1;
  auto run = [&](size_t span_capacity) {
    NodeOptions opt = TraceOptions();
    opt.scheduler_options.span_capacity = span_capacity;
    NodeRig rig(opt);
    EXPECT_TRUE(rig.node.AddTenant(1, {500.0, 500.0}, lying).ok());
    rig.RunTask([&]() -> sim::Task<void> {
      co_await Churn(&rig.node, 1, 150);
      co_await rig.node.partition(1)->WaitIdle();
    }());
    EXPECT_EQ(rig.node.scheduler().spans() != nullptr, span_capacity > 0);
    return rig.node.Snapshot();
  };
  const NodeStats off = run(0);
  const NodeStats on = run(1 << 14);
  EXPECT_FALSE(off.spans.enabled);
  ASSERT_EQ(off.tenants.size(), 1u);
  ASSERT_EQ(on.tenants.size(), 1u);
  const AttributionSnapshot& a = off.tenants[0].attribution;
  const AttributionSnapshot& b = on.tenants[0].attribution;
  ASSERT_TRUE(a.observed);
  EXPECT_GT(a.matrix.total_vops, 0.0);
  EXPECT_GT(a.matrix.norm_requests[static_cast<int>(AppRequest::kPut)], 0.0);
  EXPECT_GT(a.matrix.norm_requests[static_cast<int>(AppRequest::kGet)], 0.0);
  EXPECT_TRUE(a.declared.declared);
  EXPECT_FALSE(a.conformant);  // hides the PUT's direct and indirect cost
  EXPECT_EQ(a.report.divergence, b.report.divergence);
  EXPECT_EQ(a.matrix.total_vops, b.matrix.total_vops);
  for (int app = 0; app < obs::kAttrApps; ++app) {
    EXPECT_EQ(a.matrix.norm_requests[app], b.matrix.norm_requests[app]);
    for (int i = 0; i < obs::kAttrInternal; ++i) {
      EXPECT_EQ(a.matrix.vops[app][i], b.matrix.vops[app][i]);
    }
  }
}

TEST(NodeTraceTest, SlaTrackedOncePolicyRuns) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {500.0, 500.0}).ok());
  rig.node.Start();
  sim::Detach(Churn(&rig.node, 1, 2000));
  // The policy's interval timer re-arms forever: bound the run past a few
  // 1s provisioning intervals, then stop and drain.
  rig.loop.RunUntil(3 * kSecond + 500 * kMillisecond);
  rig.node.Stop();
  rig.loop.Run();

  const NodeStats stats = rig.node.Snapshot();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_TRUE(stats.tenants[0].sla.tracked);
  EXPECT_GT(stats.tenants[0].sla.sla.intervals, 0u);
  // Audit entries past the first carry the achieved rate.
  ASSERT_GT(stats.audit.size(), 1u);
  bool any_achieved = false;
  for (const obs::AuditRecord& rec : stats.audit) {
    for (const obs::AuditTenantEntry& e : rec.tenants) {
      if (e.achieved_vops > 0.0) {
        any_achieved = true;
      }
    }
  }
  EXPECT_TRUE(any_achieved);
}

TEST(NodeTraceTest, StatsJsonCarriesTracingSections) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {500.0, 500.0}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await Churn(&rig.node, 1, 50);
    co_await rig.node.partition(1)->WaitIdle();
  }());

  const std::string json = NodeStatsToJson(rig.node.Snapshot());
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::JsonParse(json, &doc, &err)) << err;

  const obs::JsonValue* spans = doc.Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_TRUE(spans->Find("enabled")->bool_value);
  EXPECT_GT(spans->Find("recorded")->number, 0.0);
  ASSERT_NE(spans->Find("dropped"), nullptr);

  const obs::JsonValue* tenants = doc.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->array.size(), 1u);
  const obs::JsonValue& t = tenants->array[0];
  const obs::JsonValue* attr = t.Find("attribution");
  ASSERT_NE(attr, nullptr);
  EXPECT_TRUE(attr->Find("observed")->bool_value);
  ASSERT_NE(attr->Find("q"), nullptr);
  // GET/PUT/SCAN x kAttrInternal internals (direct, FLUSH, COMPACT, REPL).
  EXPECT_EQ(attr->Find("q")->array.size(),
            static_cast<size_t>(obs::kAttrApps - 1) *
                static_cast<size_t>(obs::kAttrInternal));
  const obs::JsonValue* sla = t.Find("sla");
  ASSERT_NE(sla, nullptr);
  ASSERT_NE(sla->Find("violation_rate"), nullptr);
}

}  // namespace
}  // namespace libra::kv
