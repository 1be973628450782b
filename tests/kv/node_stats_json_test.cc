// Validates the NodeStatsToJson schema end-to-end: drive a two-tenant node
// under load, snapshot it, parse the JSON back, and check every section the
// --stats-json consumers rely on — per-tenant request percentiles, queue-wait
// vs device-service histograms, LSM flush/compaction totals, and the
// provisioning audit log with its profile components.

#include "src/kv/node_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/kv/storage_node.h"
#include "src/obs/json.h"
#include "src/sim/sync.h"
#include "src/workload/workload.h"

namespace libra::kv {
namespace {

using obs::JsonParse;
using obs::JsonValue;

ssd::CalibrationTable SnapshotTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

// The histogram sub-object HistogramToJson emits. `positive` additionally
// requires nonzero percentiles (true for service/request latency; queue wait
// can be legitimately zero when ops dispatch immediately).
void ExpectHistogramSchema(const JsonValue* h, bool positive) {
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->is_object());
  ASSERT_NE(h->Find("count"), nullptr);
  EXPECT_GT(h->Find("count")->number, 0.0);
  for (const char* p : {"p50", "p90", "p99", "p999"}) {
    const JsonValue* v = h->Find(p);
    ASSERT_NE(v, nullptr) << p;
    EXPECT_TRUE(std::isfinite(v->number)) << p;
    if (positive) {
      EXPECT_GT(v->number, 0.0) << p;
    } else {
      EXPECT_GE(v->number, 0.0) << p;
    }
  }
  EXPECT_LE(h->Find("p50")->number, h->Find("p99")->number);
  EXPECT_LE(h->Find("min_ns")->number, h->Find("max_ns")->number);
}

TEST(NodeStatsJsonTest, EmptyNodeSnapshotParses) {
  sim::EventLoop loop;
  NodeOptions opt;
  opt.calibration = SnapshotTable();
  opt.prefill_bytes = 0;
  StorageNode node(loop, opt);

  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonParse(NodeStatsToJson(node.Snapshot()), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  ASSERT_TRUE(v.Find("tenants")->is_array());
  EXPECT_TRUE(v.Find("tenants")->array.empty());
  EXPECT_TRUE(v.Find("audit")->array.empty());
  EXPECT_GT(v.Find("capacity")->Find("floor_vops")->number, 0.0);

  // Replication/recovery sections are always present; a standalone node
  // reports the unreplicated, never-crashed defaults.
  const JsonValue* repl = v.Find("replication");
  ASSERT_NE(repl, nullptr);
  EXPECT_FALSE(repl->Find("enabled")->bool_value);
  EXPECT_TRUE(repl->Find("alive")->bool_value);
  EXPECT_FALSE(repl->Find("syncing")->bool_value);
  for (const char* k : {"leader_slots", "follower_slots", "fanout_puts",
                        "fanout_bytes", "failover_gets", "catchup_keys",
                        "catchup_bytes", "catchup_lag_slots"}) {
    ASSERT_NE(repl->Find(k), nullptr) << k;
    EXPECT_EQ(repl->Find(k)->number, 0.0) << k;
  }
  const JsonValue* rec = v.Find("recovery");
  ASSERT_NE(rec, nullptr);
  for (const char* k : {"crashes", "restarts", "wal_files_replayed",
                        "replay_records", "replay_bytes",
                        "rereplication_vops"}) {
    ASSERT_NE(rec->Find(k), nullptr) << k;
    EXPECT_EQ(rec->Find(k)->number, 0.0) << k;
  }
}

TEST(NodeStatsJsonTest, RecoverySectionCountsCrashRestartAndReplay) {
  sim::EventLoop loop;
  NodeOptions opt;
  opt.calibration = SnapshotTable();
  opt.prefill_bytes = 0;
  StorageNode node(loop, opt);
  ASSERT_TRUE(node.AddTenant(1, {100.0, 100.0}).ok());

  auto fill = [&]() -> sim::Task<void> {
    for (int i = 0; i < 12; ++i) {
      co_await node.Put(1, "key" + std::to_string(i), std::string(64, 'v'));
    }
  };
  sim::Detach(fill());
  loop.Run();
  node.Crash();
  EXPECT_TRUE(node.Snapshot().tenants.empty());
  auto restart = [&]() -> sim::Task<void> {
    const Status s = co_await node.Restart();
    EXPECT_TRUE(s.ok()) << s.ToString();
  };
  sim::Detach(restart());
  loop.Run();
  // The latencies served before the crash survive it.
  const NodeStats snap = node.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].put_latency.count(), 12u);

  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonParse(NodeStatsToJson(node.Snapshot()), &v, &err)) << err;
  const JsonValue* rec = v.Find("recovery");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->Find("crashes")->number, 1.0);
  EXPECT_EQ(rec->Find("restarts")->number, 1.0);
  EXPECT_GE(rec->Find("wal_files_replayed")->number, 1.0);
  EXPECT_EQ(rec->Find("replay_records")->number, 12.0);
  EXPECT_GT(rec->Find("replay_bytes")->number, 0.0);
}

TEST(NodeStatsJsonTest, LoadedNodeSnapshotMatchesSchema) {
  sim::EventLoop loop;
  NodeOptions opt;
  opt.calibration = SnapshotTable();
  opt.prefill_bytes = 0;
  // Small memtables so the run includes flushes (and usually compactions).
  opt.lsm_options.write_buffer_bytes = 256 * 1024;
  opt.lsm_options.max_bytes_level1 = 1 * kMiB;
  StorageNode node(loop, opt);

  ASSERT_TRUE(node.AddTenant(1, {1500.0, 500.0, 300.0}).ok());
  ASSERT_TRUE(node.AddTenant(2, {500.0, 1500.0}).ok());

  workload::KvWorkloadSpec spec;
  spec.get_fraction = 0.5;
  spec.get_size = {4096.0, 0.0};
  spec.put_size = {4096.0, 0.0};
  spec.live_bytes_target = 4 * kMiB;
  spec.workers = 4;
  // Tenant 1 mixes in range scans so the SCAN surfaces carry real traffic;
  // tenant 2 stays point-only and must still emit the full schema.
  workload::KvWorkloadSpec scan_spec = spec;
  scan_spec.scan_fraction = 0.15;
  workload::KvTenantWorkload wl1(loop, node, 1, scan_spec, 11);
  workload::KvTenantWorkload wl2(loop, node, 2, spec, 12);

  {
    sim::TaskGroup preload(loop);
    preload.Spawn(wl1.Preload());
    preload.Spawn(wl2.Preload());
    loop.Run();
  }
  node.Start();
  {
    sim::TaskGroup group(loop);
    const SimTime end = loop.Now() + 3 * kSecond;
    wl1.Start(group, end);
    wl2.Start(group, end);
    loop.RunUntil(end + kSecond);
    node.Stop();
    loop.Run();
  }

  const std::string json = NodeStatsToJson(node.Snapshot());
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonParse(json, &v, &err)) << err;
  ASSERT_TRUE(v.is_object());

  EXPECT_GT(v.Find("time_ns")->number, 0.0);
  const JsonValue* device = v.Find("device");
  ASSERT_NE(device, nullptr);
  EXPECT_GT(device->Find("reads_completed")->number, 0.0);
  EXPECT_GT(device->Find("writes_completed")->number, 0.0);
  EXPECT_TRUE(std::isfinite(device->Find("avg_queue_depth")->number));
  EXPECT_GE(device->Find("avg_queue_depth")->number, 0.0);
  EXPECT_GT(v.Find("capacity")->Find("floor_vops")->number, 0.0);
  EXPECT_GT(v.Find("scheduler")->Find("rounds")->number, 0.0);

  // --- per-tenant section ---
  const JsonValue* tenants = v.Find("tenants");
  ASSERT_TRUE(tenants->is_array());
  ASSERT_EQ(tenants->array.size(), 2u);
  for (const JsonValue& t : tenants->array) {
    SCOPED_TRACE("tenant " + std::to_string(t.Find("tenant")->number));
    EXPECT_GT(t.Find("reservation")->Find("get_rps")->number, 0.0);
    EXPECT_GT(t.Find("reservation")->Find("put_rps")->number, 0.0);
    ASSERT_NE(t.Find("reservation")->Find("scan_rps"), nullptr);
    EXPECT_GE(t.Find("reservation")->Find("scan_rps")->number, 0.0);
    EXPECT_GE(t.Find("allocation_vops")->number, 0.0);
    const bool scanning = t.Find("tenant")->number == 1.0;

    // Application-level GET/PUT/SCAN latency percentiles.
    ExpectHistogramSchema(t.Find("requests")->Find("GET"), true);
    ExpectHistogramSchema(t.Find("requests")->Find("PUT"), true);
    ASSERT_NE(t.Find("requests")->Find("SCAN"), nullptr);
    if (scanning) {
      ExpectHistogramSchema(t.Find("requests")->Find("SCAN"), true);
    } else {
      // Point-only tenant: the SCAN histogram is present but empty.
      EXPECT_EQ(t.Find("requests")->Find("SCAN")->Find("count")->number, 0.0);
    }

    // Scheduler lifecycle: queue wait vs device service, ops == samples.
    const JsonValue* total = t.Find("io")->Find("total");
    ASSERT_NE(total, nullptr);
    const double ops = total->Find("ops")->number;
    EXPECT_GT(ops, 0.0);
    EXPECT_GE(total->Find("chunks")->number, ops);
    EXPECT_GT(total->Find("bytes")->number, 0.0);
    ExpectHistogramSchema(total->Find("queue_wait"), false);
    ExpectHistogramSchema(total->Find("device_service"), true);
    EXPECT_EQ(total->Find("queue_wait")->Find("count")->number, ops);
    EXPECT_EQ(total->Find("device_service")->Find("count")->number, ops);

    // Per-class breakdown sums back to the total and is labeled.
    const JsonValue* classes = t.Find("io")->Find("classes");
    ASSERT_TRUE(classes->is_array());
    ASSERT_FALSE(classes->array.empty());
    double class_ops = 0.0;
    bool saw_direct_put = false;
    for (const JsonValue& c : classes->array) {
      const std::string& app = c.Find("app")->string_value;
      const std::string& internal = c.Find("internal")->string_value;
      EXPECT_TRUE(app == "GET" || app == "PUT" || app == "SCAN" ||
                  app == "none")
          << app;
      EXPECT_TRUE(internal == "direct" || internal == "FLUSH" ||
                  internal == "COMPACT" || internal == "REPL")
          << internal;
      saw_direct_put |= app == "PUT" && internal == "direct";
      EXPECT_GT(c.Find("stats")->Find("ops")->number, 0.0);
      class_ops += c.Find("stats")->Find("ops")->number;
    }
    EXPECT_TRUE(saw_direct_put);
    EXPECT_EQ(class_ops, ops);

    // LSM totals: the small memtable guarantees flush activity.
    const JsonValue* lsm = t.Find("lsm");
    EXPECT_GT(lsm->Find("puts")->number, 0.0);
    EXPECT_GT(lsm->Find("gets")->number, 0.0);
    EXPECT_GT(lsm->Find("flushes")->number, 0.0);
    EXPECT_GT(lsm->Find("flush_bytes")->number, 0.0);
    EXPECT_GT(lsm->Find("flush_ns")->number, 0.0);
    ASSERT_NE(lsm->Find("compactions"), nullptr);
    ASSERT_NE(lsm->Find("compact_bytes_read"), nullptr);
    ASSERT_NE(lsm->Find("compact_bytes_written"), nullptr);
    ASSERT_NE(lsm->Find("stalls"), nullptr);
    ASSERT_NE(lsm->Find("scans"), nullptr);
    ASSERT_NE(lsm->Find("scan_keys"), nullptr);
    ASSERT_NE(lsm->Find("scan_bytes"), nullptr);
    ASSERT_NE(lsm->Find("compaction_policy"), nullptr);
    EXPECT_EQ(lsm->Find("compaction_policy")->string_value, "leveled");
    if (scanning) {
      EXPECT_GT(lsm->Find("scans")->number, 0.0);
      EXPECT_GT(lsm->Find("scan_keys")->number, 0.0);
    }
    ASSERT_TRUE(lsm->Find("files_per_level")->is_array());
    // Read-path sections are always present (zero when filters/cache off).
    const JsonValue* bloom = lsm->Find("bloom");
    ASSERT_NE(bloom, nullptr);
    for (const char* k : {"probes", "negatives", "false_positives"}) {
      ASSERT_NE(bloom->Find(k), nullptr) << k;
    }
    const JsonValue* bc = lsm->Find("block_cache");
    ASSERT_NE(bc, nullptr);
    for (const char* k :
         {"index_hits", "index_misses", "filter_hits", "filter_misses",
          "data_hits", "data_misses", "evictions", "resident_bytes",
          "capacity_bytes"}) {
      ASSERT_NE(bc->Find(k), nullptr) << k;
    }
    const JsonValue* rp = lsm->Find("read_path");
    ASSERT_NE(rp, nullptr);
    for (const char* k : {"index_block_reads", "filter_block_reads",
                          "data_block_reads", "data_cache_hits"}) {
      ASSERT_NE(rp->Find(k), nullptr) << k;
    }
    EXPECT_GE(rp->Find("index_block_reads")->number, 0.0);
  }

  // Node-level shared block cache: present but disabled in this config.
  const JsonValue* nbc = v.Find("block_cache");
  ASSERT_NE(nbc, nullptr);
  EXPECT_FALSE(nbc->Find("enabled")->bool_value);

  // --- provisioning audit log ---
  const JsonValue* audit = v.Find("audit");
  ASSERT_TRUE(audit->is_array());
  ASSERT_FALSE(audit->array.empty());  // policy ran >= 1 interval
  const JsonValue& rec = audit->array.back();
  EXPECT_GT(rec.Find("time_ns")->number, 0.0);
  EXPECT_GT(rec.Find("capacity_floor_vops")->number, 0.0);
  EXPECT_GT(rec.Find("total_required_vops")->number, 0.0);
  EXPECT_GT(rec.Find("scale")->number, 0.0);
  EXPECT_LE(rec.Find("scale")->number, 1.0);
  ASSERT_NE(rec.Find("overbooked"), nullptr);
  ASSERT_EQ(rec.Find("tenants")->array.size(), 2u);
  for (const JsonValue& e : rec.Find("tenants")->array) {
    SCOPED_TRACE("audit tenant " + std::to_string(e.Find("tenant")->number));
    EXPECT_GT(e.Find("reserved_get_rps")->number, 0.0);
    EXPECT_GT(e.Find("reserved_put_rps")->number, 0.0);
    ASSERT_NE(e.Find("reserved_scan_rps"), nullptr);
    EXPECT_GE(e.Find("reserved_scan_rps")->number, 0.0);
    ASSERT_NE(e.Find("compaction_policy"), nullptr);
    EXPECT_EQ(e.Find("compaction_policy")->string_value, "leveled");
    for (const char* prof : {"profile_get", "profile_put", "profile_scan"}) {
      const JsonValue* p = e.Find(prof);
      ASSERT_NE(p, nullptr) << prof;
      for (const char* comp : {"direct", "flush", "compact"}) {
        ASSERT_NE(p->Find(comp), nullptr) << prof << "." << comp;
        EXPECT_GE(p->Find(comp)->number, 0.0) << prof << "." << comp;
      }
    }
    // Profiles have been learned from real traffic, so prices are positive
    // and the grant follows required * scale.
    EXPECT_GT(e.Find("price_get")->number, 0.0);
    EXPECT_GT(e.Find("price_put")->number, 0.0);
    ASSERT_NE(e.Find("price_scan"), nullptr);
    EXPECT_GE(e.Find("price_scan")->number, 0.0);
    EXPECT_GT(e.Find("required_vops")->number, 0.0);
    EXPECT_NEAR(e.Find("granted_vops")->number,
                e.Find("required_vops")->number * rec.Find("scale")->number,
                1e-6 * e.Find("required_vops")->number + 1e-9);
  }
}

TEST(NodeStatsJsonTest, BatchingSectionsEmitted) {
  sim::EventLoop loop;
  NodeOptions opt;
  opt.calibration = SnapshotTable();
  opt.prefill_bytes = 0;
  opt.lsm_options.write_buffer_bytes = 256 * 1024;
  opt.lsm_options.max_bytes_level1 = 1 * kMiB;
  opt.lsm_options.wal_group_commit = true;
  opt.lsm_options.table_cache_bytes = 64 * kKiB;
  opt.enable_read_coalescing = true;
  opt.enable_cache = true;
  opt.cache_bytes = 4 * 1024;  // tiny: early keys age out of the object cache
  StorageNode node(loop, opt);
  ASSERT_TRUE(node.AddTenant(1, {}).ok());

  auto key = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%08d", i);
    return std::string(buf);
  };
  // Concurrent PUTs so the WAL forms real batches...
  auto writer = [&](int i) -> sim::Task<void> {
    co_await node.Put(1, key(i), std::string(1024, 'v'));
  };
  for (int i = 0; i < 16; ++i) {
    sim::Detach(writer(i));
  }
  loop.Run();
  // ...then enough data to flush tables and exercise the table cache.
  auto fill = [&]() -> sim::Task<void> {
    for (int i = 16; i < 300; ++i) {
      co_await node.Put(1, key(i), std::string(1024, 'v'));
    }
    co_await node.partition(1)->WaitIdle();
  };
  sim::Detach(fill());
  loop.Run();
  // Duplicate in-flight GETs of a flushed, cache-cold key: coalescing.
  auto get0 = [&]() -> sim::Task<void> {
    auto r = co_await node.Get(1, key(0));
    EXPECT_TRUE(r.status().ok());
  };
  for (int i = 0; i < 4; ++i) {
    sim::Detach(get0());
  }
  loop.Run();
  // A recently written key is object-cache resident.
  auto get_recent = [&]() -> sim::Task<void> {
    auto r = co_await node.Get(1, key(299));
    EXPECT_TRUE(r.status().ok());
  };
  sim::Detach(get_recent());
  loop.Run();

  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonParse(NodeStatsToJson(node.Snapshot()), &v, &err)) << err;

  const JsonValue* oc = v.Find("object_cache");
  ASSERT_NE(oc, nullptr);
  EXPECT_TRUE(oc->Find("enabled")->bool_value);
  EXPECT_GE(oc->Find("hits")->number, 1.0);
  EXPECT_GE(oc->Find("misses")->number, 1.0);
  EXPECT_GE(oc->Find("evictions")->number, 1.0);  // tiny budget, 300 keys
  EXPECT_GT(oc->Find("resident_bytes")->number, 0.0);
  ASSERT_NE(v.Find("coalesced_gets"), nullptr);
  EXPECT_EQ(v.Find("coalesced_gets")->number, 3.0);

  ASSERT_EQ(v.Find("tenants")->array.size(), 1u);
  const JsonValue& t = v.Find("tenants")->array[0];
  const JsonValue* wal = t.Find("lsm")->Find("wal");
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->Find("appends")->number, 300.0);
  EXPECT_EQ(wal->Find("batched_records")->number, 300.0);
  EXPECT_GT(wal->Find("batches")->number, 0.0);
  EXPECT_LT(wal->Find("batches")->number, 300.0);
  EXPECT_GE(wal->Find("max_batch_records")->number, 2.0);
  // table_cache_bytes bounds an index+filter-only block cache.
  EXPECT_EQ(t.Find("lsm")->Find("table_cache"), nullptr);
  const JsonValue* bc = t.Find("lsm")->Find("block_cache");
  ASSERT_NE(bc, nullptr);
  EXPECT_GE(bc->Find("index_misses")->number, 1.0);
  EXPECT_GT(bc->Find("resident_bytes")->number, 0.0);
  EXPECT_EQ(bc->Find("capacity_bytes")->number, 64.0 * kKiB);
  ASSERT_NE(bc->Find("index_hits"), nullptr);
  ASSERT_NE(bc->Find("evictions"), nullptr);
}

TEST(NodeStatsJsonTest, FilteredCachedReadPathSectionsEmitted) {
  sim::EventLoop loop;
  NodeOptions opt;
  opt.calibration = SnapshotTable();
  opt.prefill_bytes = 0;
  opt.lsm_options.write_buffer_bytes = 64 * 1024;
  opt.lsm_options.max_bytes_level1 = 256 * 1024;
  opt.lsm_options.bloom_bits_per_key = 10;
  opt.lsm_options.block_cache_bytes = 1 * kMiB;
  StorageNode node(loop, opt);
  ASSERT_TRUE(node.AddTenant(1, {}).ok());

  auto key = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%08d", i);
    return std::string(buf);
  };
  auto run = [&]() -> sim::Task<void> {
    for (int i = 0; i < 300; ++i) {
      co_await node.Put(1, key(i), std::string(1024, 'v'));
    }
    co_await node.partition(1)->WaitIdle();
    for (int i = 0; i < 300; i += 30) {
      (void)co_await node.Get(1, key(i));
      (void)co_await node.Get(1, key(i));  // repeat: data-cache hit
      // In-range absent key: a filter negative.
      (void)co_await node.Get(1, key(i) + "x");
    }
  };
  sim::Detach(run());
  loop.Run();

  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonParse(NodeStatsToJson(node.Snapshot()), &v, &err)) << err;

  // Node-level shared cache rollup.
  const JsonValue* nbc = v.Find("block_cache");
  ASSERT_NE(nbc, nullptr);
  EXPECT_TRUE(nbc->Find("enabled")->bool_value);
  EXPECT_EQ(nbc->Find("capacity_bytes")->number, 1.0 * kMiB);
  EXPECT_GT(nbc->Find("resident_bytes")->number, 0.0);
  EXPECT_GT(nbc->Find("entries")->number, 0.0);
  EXPECT_GE(nbc->Find("hits")->number, 1.0);
  EXPECT_GE(nbc->Find("misses")->number, 1.0);

  ASSERT_EQ(v.Find("tenants")->array.size(), 1u);
  const JsonValue* lsm = v.Find("tenants")->array[0].Find("lsm");
  const JsonValue* bloom = lsm->Find("bloom");
  EXPECT_GT(bloom->Find("probes")->number, 0.0);
  EXPECT_GT(bloom->Find("negatives")->number, 0.0);
  const JsonValue* bc = lsm->Find("block_cache");
  EXPECT_GT(bc->Find("data_hits")->number, 0.0);
  EXPECT_GT(bc->Find("data_misses")->number, 0.0);
  EXPECT_EQ(bc->Find("capacity_bytes")->number, 1.0 * kMiB);
  const JsonValue* rp = lsm->Find("read_path");
  EXPECT_GT(rp->Find("data_block_reads")->number, 0.0);
  EXPECT_GT(rp->Find("data_cache_hits")->number, 0.0);
  EXPECT_GT(rp->Find("filter_block_reads")->number, 0.0);
}

}  // namespace
}  // namespace libra::kv
