// The filtered, cached GET path end-to-end: bloom filters written at flush
// and compaction, negative probes skipping index+data reads, block-cache
// hits costing zero device IO, eviction re-reads re-charged as VOPs, and
// bit-for-bit VOP conservation with filters + cache on under both
// compaction policies.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/kv/storage_node.h"
#include "src/lsm/db.h"
#include "tests/lsm/lsm_rig.h"

namespace libra::lsm {
namespace {

using testing::LsmRig;

LsmOptions SmallOptions() {
  LsmOptions opt;
  opt.write_buffer_bytes = 64 * 1024;
  opt.max_bytes_level1 = 256 * 1024;
  opt.target_file_bytes = 64 * 1024;
  return opt;
}

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

// Filters are written by flushes AND compactions: after churn that compacts
// everything out of L0, absent-key GETs still probe per-table filters — the
// compaction-output tables carry them too.
TEST(ReadPathTest, FilterRoundTripThroughFlushAndCompaction) {
  LsmRig rig;
  LsmOptions opt = SmallOptions();
  opt.bloom_bits_per_key = 10;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", opt);
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 400; ++i) {
        co_await db.Put(Key(i), std::string(512, 'a' + round));
      }
    }
    co_await db.WaitIdle();
    // Present keys: filters never drop a real key.
    for (int i = 0; i < 400; i += 37) {
      auto r = co_await db.Get(Key(i));
      EXPECT_TRUE(r.status.ok()) << i;
      EXPECT_EQ(r.value, std::string(512, 'a' + 3)) << i;
    }
  }());
  ASSERT_GT(db.stats().compactions, 0u);
  ASSERT_GT(db.NumFilesAtLevel(1), 0);
  const LsmStats mid = db.stats();
  EXPECT_GT(mid.bloom_probes, 0u);
  EXPECT_GT(mid.filter_block_reads, 0u);
  // Absent keys INSIDE the table key range (out-of-range keys are skipped
  // by the smallest/largest check before any filter probe): every probed
  // table — flush- or compaction-built — answers definitely-not via its
  // filter.
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      auto r = co_await db.Get(Key(2 * i) + "x");
      EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
    }
  }());
  const LsmStats after = db.stats();
  EXPECT_GT(after.bloom_negatives, mid.bloom_negatives);
  // A negative probe skips the table entirely: no index or data reads
  // beyond what the present-key lookups already did.
  EXPECT_EQ(after.index_block_reads, mid.index_block_reads);
  EXPECT_EQ(after.data_block_reads, mid.data_block_reads);
}

// Once a table's filter is resident, an absent-key GET costs zero device
// reads — the negative probe answers from memory.
TEST(ReadPathTest, NegativeProbeCostsZeroDeviceReadsWhenFilterResident) {
  LsmRig rig;
  LsmOptions opt = SmallOptions();
  opt.bloom_bits_per_key = 10;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", opt);
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      co_await db.Put(Key(i), std::string(1024, 'v'));
    }
    co_await db.WaitIdle();
    // Warm each table's footer + filter: in-range absent keys force a
    // probe of every table whose range covers them.
    for (int i = 0; i < 10; ++i) {
      auto r = co_await db.Get(Key(15 * i) + "x");
      EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
    }
  }());
  const LsmStats warm = db.stats();
  ASSERT_GT(warm.bloom_negatives, 0u);
  const auto before = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    // Same absent keys again: the resident filters answer without IO.
    for (int i = 0; i < 10; ++i) {
      auto r = co_await db.Get(Key(15 * i) + "x");
      EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
    }
  }());
  const auto after = rig.sched.tracker().Stats(1);
  EXPECT_EQ(after.read_ops, before.read_ops);
  EXPECT_EQ(after.vops, before.vops);
  EXPECT_GT(db.stats().bloom_negatives, warm.bloom_negatives);
}

// Data-block cache hits cost zero device IO and zero VOPs; after eviction
// the re-read is charged again — repricing, not free-riding.
TEST(ReadPathTest, EvictionRereadIsRecharged) {
  LsmRig rig;
  // Roomy cache first: the second GET of the same key is a pure cache hit.
  LsmOptions opt = SmallOptions();
  opt.block_cache_bytes = 4 * kMiB;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", opt);
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      co_await db.Put(Key(i), std::string(1024, 'v'));
    }
    co_await db.WaitIdle();
    auto r = co_await db.Get(Key(7));
    EXPECT_TRUE(r.status.ok());
  }());
  const auto warm = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await db.Get(Key(7));
    EXPECT_TRUE(r.status.ok());
  }());
  const auto hit = rig.sched.tracker().Stats(1);
  EXPECT_EQ(hit.read_ops, warm.read_ops);  // zero device IO on a hit
  EXPECT_EQ(hit.vops, warm.vops);
  EXPECT_GT(db.stats().data_cache_hits, 0u);

  // Tiny cache: every block insert evicts the previous one, so the same
  // repeated GET re-reads — and is re-charged — every time.
  LsmOptions tiny = SmallOptions();
  tiny.block_cache_bytes = 1;
  LsmDb db2(rig.loop, rig.fs, rig.sched, 2, "t2", tiny);
  ASSERT_TRUE(db2.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      co_await db2.Put(Key(i), std::string(1024, 'v'));
    }
    co_await db2.WaitIdle();
    auto r = co_await db2.Get(Key(7));
    EXPECT_TRUE(r.status.ok());
  }());
  const auto base2 = rig.sched.tracker().Stats(2);
  rig.RunTask([&]() -> sim::Task<void> {
    // Alternate between far-apart keys so each GET's index + data blocks
    // evict the other's.
    for (int i = 0; i < 4; ++i) {
      auto a = co_await db2.Get(Key(7));
      EXPECT_TRUE(a.status.ok());
      auto b = co_await db2.Get(Key(180));
      EXPECT_TRUE(b.status.ok());
    }
  }());
  const auto thrash = rig.sched.tracker().Stats(2);
  EXPECT_GT(thrash.read_ops, base2.read_ops);
  EXPECT_GT(thrash.vops, base2.vops);
  EXPECT_GT(db2.stats().bcache_evictions, 0u);
  // The evicted-and-reloaded reads are visible in the read-path counters.
  EXPECT_GT(db2.stats().data_block_reads, 2u);
}

ssd::CalibrationTable NodeTable() { return testing::RigTable(); }

sim::Task<void> MixedChurn(kv::StorageNode* node, iosched::TenantId tenant,
                           int n) {
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE((co_await node->Put(tenant, "k" + std::to_string(i % 40),
                                    std::string(700, 'a' + (i % 26))))
                    .ok());
    if (i % 3 == 0) {
      const auto r = co_await node->Scan(tenant, "k", std::string(), 8);
      EXPECT_TRUE(r.status.ok());
      EXPECT_GT(r.entries.size(), 0u);
    }
    if (i % 5 == 0) {
      (void)co_await node->Get(tenant, "k" + std::to_string(i % 40));
    }
    if (i % 7 == 0) {
      // In-range absent keys exercise the negative-probe path in the mix.
      const auto r =
          co_await node->Get(tenant, "k" + std::to_string(i % 40) + "_absent");
      EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
    }
  }
}

// With filters AND the node-shared block cache on, the attribution cells
// still sum to the tracker's per-tenant VOP totals — for GETs and SCANs,
// under both compaction policies.
TEST(ReadPathTest, VopConservationWithFiltersAndCacheUnderBothPolicies) {
  sim::EventLoop loop;
  kv::NodeOptions opt;
  opt.calibration = NodeTable();
  opt.lsm_options.write_buffer_bytes = 32 * 1024;
  opt.lsm_options.target_file_bytes = 32 * 1024;
  opt.lsm_options.l0_compaction_trigger = 2;
  opt.lsm_options.max_bytes_level1 = 64 * 1024;
  opt.lsm_options.bloom_bits_per_key = 10;
  opt.lsm_options.block_cache_bytes = 256 * 1024;
  opt.prefill_bytes = 64 * kMiB;
  kv::StorageNode node(loop, opt);
  ASSERT_TRUE(
      node.AddTenant(1, {500.0, 500.0, 200.0}, {}, CompactionPolicy::kLeveled)
          .ok());
  ASSERT_TRUE(node.AddTenant(2, {500.0, 500.0, 200.0}, {},
                             CompactionPolicy::kSizeTiered)
                  .ok());
  sim::Detach([](sim::EventLoop& l, kv::StorageNode& n) -> sim::Task<void> {
    sim::TaskGroup group(l);
    group.Spawn(MixedChurn(&n, 1, 400));
    group.Spawn(MixedChurn(&n, 2, 400));
    co_await group.Join();
    co_await n.partition(1)->WaitIdle();
    co_await n.partition(2)->WaitIdle();
  }(loop, node));
  loop.Run();

  ASSERT_NE(node.block_cache(), nullptr);
  EXPECT_GT(node.block_cache()->hits(), 0u);
  for (iosched::TenantId t : {iosched::TenantId{1}, iosched::TenantId{2}}) {
    const LsmStats s = node.partition(t)->stats();
    EXPECT_GT(s.bloom_probes, 0u) << "tenant " << t;
    EXPECT_GT(s.bloom_negatives, 0u) << "tenant " << t;
    EXPECT_GT(s.scans, 0u) << "tenant " << t;
    const std::optional<obs::AttributionMatrix> m =
        node.tracker().Attribution(t);
    ASSERT_TRUE(m.has_value());
    // Filter and cache-fill IO rides the caller's IoTag, so the per-class
    // attribution still sums to the admitted VOPs.
    const double vops = node.tracker().Stats(t).vops;
    EXPECT_NEAR(m->CellSum(), vops, 1e-12 * vops) << "tenant " << t;
    EXPECT_GT(
        m->norm_requests[static_cast<int>(iosched::AppRequest::kScan)], 0.0)
        << "tenant " << t;
  }
  EXPECT_GT(node.partition(2)->stats().compactions, 0u);
}

// The node-shared cache is ONE budget across tenants with per-tenant
// accounting, and per-tenant LSM stats expose each tenant's share.
TEST(ReadPathTest, NodeSharedCachePerTenantAccounting) {
  sim::EventLoop loop;
  kv::NodeOptions opt;
  opt.calibration = NodeTable();
  opt.lsm_options.write_buffer_bytes = 32 * 1024;
  opt.lsm_options.block_cache_bytes = 1 * kMiB;
  opt.prefill_bytes = 64 * kMiB;
  kv::StorageNode node(loop, opt);
  ASSERT_TRUE(node.AddTenant(1, {500.0, 500.0}).ok());
  ASSERT_TRUE(node.AddTenant(2, {500.0, 500.0}).ok());
  sim::Detach([](kv::StorageNode& n) -> sim::Task<void> {
    for (iosched::TenantId t : {iosched::TenantId{1}, iosched::TenantId{2}}) {
      for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE((co_await n.Put(t, Key(i), std::string(1024, 'v'))).ok());
      }
      co_await n.partition(t)->WaitIdle();
      for (int i = 0; i < 100; i += 10) {
        (void)co_await n.Get(t, Key(i));
        (void)co_await n.Get(t, Key(i));  // repeat: data-cache hit
      }
    }
  }(node));
  loop.Run();

  ASSERT_NE(node.block_cache(), nullptr);
  uint64_t per_tenant_hits = 0;
  for (iosched::TenantId t : {iosched::TenantId{1}, iosched::TenantId{2}}) {
    const LsmStats s = node.partition(t)->stats();
    EXPECT_GT(s.data_cache_hits, 0u) << "tenant " << t;
    EXPECT_EQ(s.bcache_capacity_bytes, 1u * kMiB);
    per_tenant_hits += s.bcache_index_hits + s.bcache_filter_hits +
                       s.bcache_data_hits;
  }
  // Per-tenant counters partition the shared cache's global tallies.
  EXPECT_EQ(per_tenant_hits, node.block_cache()->hits());
}

}  // namespace
}  // namespace libra::lsm
