#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/global_provisioner.h"
#include "tests/cluster/cluster_rig.h"
#include "src/sim/sync.h"
#include "src/workload/workload.h"
#include "tests/support/json_parse.h"

namespace libra::cluster {
namespace {

using iosched::Reservation;
using iosched::TenantId;

// Coroutines that outlive their spawning statement must be free functions
// taking parameters by value: arguments are copied into the coroutine
// frame, whereas a capturing lambda's closure is a temporary that dies at
// the end of the full expression while the coroutine is still suspended.
sim::Task<void> ReadLoop(sim::EventLoop* loop, TenantHandle tenant,
                         std::vector<std::string> keys, SimTime end,
                         uint64_t* reads) {
  size_t i = 0;
  while (loop->Now() < end) {
    Result<std::string> r = co_await tenant.Get(keys[i++ % keys.size()]);
    EXPECT_TRUE(r.ok());
    ++*reads;
    // Yield between reads so the migration coroutine interleaves.
    co_await sim::SleepFor(*loop, 100 * kMicrosecond);
  }
}

sim::Task<void> MigrateAndCheck(Cluster* cl, TenantId tenant, int slot,
                                int to) {
  const Status s = co_await cl->MigrateShard(tenant, slot, to);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClusterTest, HandleRoundTrip) {
  ClusterRig rig;
  Result<TenantHandle> h = rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0});
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  TenantHandle tenant = h.value();
  EXPECT_TRUE(tenant.valid());
  EXPECT_EQ(tenant.tenant(), 1u);
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await tenant.Put("k1", "v1")).ok());
    EXPECT_TRUE((co_await tenant.Put("k2", "v2")).ok());
    Result<std::string> r = co_await tenant.Get("k1");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value(), "v1");
    EXPECT_TRUE((co_await tenant.Delete("k2")).ok());
    r = co_await tenant.Get("k2");
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }());
}

TEST(ClusterTest, MultiGetPreservesKeyOrder) {
  ClusterRig rig;
  TenantHandle tenant = rig.cl.AddTenant(1, GlobalReservation{}).value();
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 16; ++i) {
      co_await tenant.Put("k" + std::to_string(i), "v" + std::to_string(i));
    }
    std::vector<std::string> keys;
    for (int i = 15; i >= 0; --i) {
      keys.push_back("k" + std::to_string(i));
    }
    keys.push_back("missing");
    const auto results = co_await tenant.MultiGet(keys);
    EXPECT_EQ(results.size(), keys.size());
    if (results.size() != keys.size()) {
      co_return;
    }
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(results[i].ok()) << keys[i];
      EXPECT_EQ(results[i].value(), "v" + std::to_string(15 - i));
    }
    EXPECT_EQ(results[16].status().code(), StatusCode::kNotFound);
  }());
}

TEST(ClusterTest, BatchedMultiGetGroupsBySlotAndPreservesResults) {
  ClusterOptions opt = TestOptions();
  opt.batch_multiget = true;
  ClusterRig rig(opt);
  TenantHandle tenant = rig.cl.AddTenant(1, GlobalReservation{}).value();
  sim::Detach([](Cluster* cl, TenantHandle tenant) -> sim::Task<void> {
    for (int i = 0; i < 32; ++i) {
      co_await tenant.Put("k" + std::to_string(i), "v" + std::to_string(i));
    }
    // Reverse order + a miss in the middle: grouping by slot must not
    // disturb result positions or status placement.
    std::vector<std::string> keys;
    for (int i = 31; i >= 16; --i) {
      keys.push_back("k" + std::to_string(i));
    }
    keys.push_back("never-written");
    for (int i = 15; i >= 0; --i) {
      keys.push_back("k" + std::to_string(i));
    }
    const auto results = co_await tenant.MultiGet(keys);
    EXPECT_EQ(results.size(), 33u);
    if (results.size() != 33u) {
      co_return;
    }
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(results[i].ok()) << keys[i];
      EXPECT_EQ(results[i].value(), "v" + std::to_string(31 - i));
    }
    EXPECT_EQ(results[16].status().code(), StatusCode::kNotFound);
    for (int i = 17; i < 33; ++i) {
      EXPECT_TRUE(results[i].ok()) << keys[i];
      EXPECT_EQ(results[i].value(), "v" + std::to_string(33 - i - 1));
    }
    // Every key rode a slot group, and grouping actually merged keys:
    // at most shards_per_tenant groups for the one batch.
    EXPECT_EQ(cl->multiget_grouped_keys(), 33u);
    EXPECT_GE(cl->multiget_groups(), 1u);
    EXPECT_LE(cl->multiget_groups(),
              static_cast<uint64_t>(ClusterOptions{}.shards_per_tenant));
  }(&rig.cl, tenant));
  rig.Settle();
}

TEST(ClusterTest, BatchedMultiGetMatchesUnbatchedResults) {
  // The knob must be invisible to callers: identical puts, identical
  // MultiGet, element-wise identical results.
  auto run = [](bool batched, std::vector<std::string>* out) {
    ClusterOptions opt = TestOptions();
    opt.batch_multiget = batched;
    ClusterRig rig(opt);
    TenantHandle tenant = rig.cl.AddTenant(1, GlobalReservation{}).value();
    rig.RunTask([](TenantHandle tenant,
                   std::vector<std::string>* out) -> sim::Task<void> {
      for (int i = 0; i < 24; ++i) {
        co_await tenant.Put("key" + std::to_string(i),
                            "val" + std::to_string(i));
      }
      std::vector<std::string> keys;
      for (int i = 0; i < 24; ++i) {
        keys.push_back("key" + std::to_string(i % 12));  // duplicates too
      }
      const auto results = co_await tenant.MultiGet(keys);
      for (const auto& r : results) {
        out->push_back(r.ok() ? r.value() : r.status().ToString());
      }
    }(tenant, out));
  };
  std::vector<std::string> plain;
  std::vector<std::string> grouped;
  run(false, &plain);
  run(true, &grouped);
  ASSERT_EQ(plain.size(), 24u);
  EXPECT_EQ(plain, grouped);
}

TEST(ClusterTest, InvalidHandleFailsClosed) {
  TenantHandle inert;
  EXPECT_FALSE(inert.valid());
  ClusterRig rig(1);
  rig.RunTask([](TenantHandle h) -> sim::Task<void> {
    EXPECT_EQ((co_await h.Put("k", "v")).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ((co_await h.Get("k")).status().code(),
              StatusCode::kFailedPrecondition);
  }(inert));
}

TEST(ClusterTest, DuplicateAndMalformedTenantsRejected) {
  ClusterRig rig;
  ASSERT_TRUE(rig.cl.AddTenant(1, GlobalReservation{10.0, 10.0}).ok());
  EXPECT_EQ(rig.cl.AddTenant(1, GlobalReservation{}).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(rig.cl.AddTenant(2, GlobalReservation{-1.0, 0.0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterTest, AdmissionRejectsOverbookedTenant) {
  ClusterRig rig;
  ASSERT_TRUE(rig.cl.AddTenant(1, GlobalReservation{1000.0, 500.0}).ok());
  const Result<TenantHandle> refused =
      rig.cl.AddTenant(2, GlobalReservation{5.0e6, 5.0e6});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // The status names the node and the budget it would blow.
  EXPECT_NE(refused.status().message().find("node"), std::string::npos);
  EXPECT_NE(refused.status().message().find("capacity floor"),
            std::string::npos);
  // The refused tenant left no residue on any node.
  rig.Settle();
  for (int n = 0; n < rig.cl.num_nodes(); ++n) {
    EXPECT_FALSE(rig.cl.node(n).HasTenant(2));
  }
}

TEST(ClusterTest, InitialSplitSumsExactlyToGlobal) {
  ClusterRig rig;
  const GlobalReservation global{1234.5, 678.9};
  ASSERT_TRUE(rig.cl.AddTenant(1, global).ok());
  rig.Settle();  // the per-node installs are messages
  double get_sum = 0.0;
  double put_sum = 0.0;
  for (int n = 0; n < rig.cl.num_nodes(); ++n) {
    const Reservation r = rig.cl.node(n).policy().GetReservation(1);
    get_sum += r.get_rps();
    put_sum += r.put_rps();
  }
  EXPECT_DOUBLE_EQ(get_sum, global.get_rps());
  EXPECT_DOUBLE_EQ(put_sum, global.put_rps());
}

TEST(ClusterTest, MigrationPreservesEveryKey) {
  ClusterRig rig;
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();

  constexpr int kKeys = 200;
  auto key_of = [](int i) { return "obj-" + std::to_string(i); };
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < kKeys; ++i) {
      co_await tenant.Put(key_of(i), "value-" + std::to_string(i));
    }
  }());

  const ShardMap& map = rig.cl.shard_map();
  const int slot = map.SlotOfKey(key_of(0));
  const int from = map.HomeOf(1, slot);
  const int to = (from + 1) % rig.cl.num_nodes();

  rig.RunTask([&]() -> sim::Task<void> {
    const Status s = co_await rig.cl.MigrateShard(1, slot, to);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }());
  EXPECT_EQ(rig.cl.HomeOf(1, slot), to);

  // Every key reads back through the handle; migrated keys are gone from
  // the source node and live on the destination.
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = key_of(i);
      Result<std::string> r = co_await tenant.Get(key);
      EXPECT_TRUE(r.ok()) << key;
      EXPECT_EQ(r.value(), "value-" + std::to_string(i));
    }
  }());
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = key_of(i);
    if (map.SlotOfKey(key) == slot) {
      EXPECT_EQ(ReadOnNode(rig, from, 1, key).status().code(),
                StatusCode::kNotFound)
          << key;
      EXPECT_TRUE(ReadOnNode(rig, to, 1, key).ok()) << key;
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);

  // The rebalance log recorded the move with a key count.
  ASSERT_FALSE(rig.cl.rebalance_log().empty());
  const obs::RebalanceRecord& rec = rig.cl.rebalance_log().back();
  EXPECT_EQ(rec.kind, obs::RebalanceRecord::Kind::kMigration);
  EXPECT_EQ(rec.from_node, from);
  EXPECT_EQ(rec.to_node, to);
  EXPECT_GT(rec.keys_moved, 0u);
}

TEST(ClusterTest, MigrationUnderLiveTrafficLosesNothing) {
  ClusterRig rig;
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();
  auto key_of = [](int i) { return "live-" + std::to_string(i); };
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 64; ++i) {
      co_await tenant.Put(key_of(i), "v");
    }
  }());
  const int slot = rig.cl.shard_map().SlotOfKey(key_of(0));
  const int to =
      (rig.cl.shard_map().HomeOf(1, slot) + 1) % rig.cl.num_nodes();

  // Readers hammer the migrating shard's keys while the migration drains
  // and flips; gated requests must suspend and then succeed.
  uint64_t reads = 0;
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(key_of(i));
  }
  {
    sim::TaskGroup group(rig.loop());
    group.Spawn(ReadLoop(&rig.loop(), tenant, keys,
                         rig.loop().Now() + 200 * kMillisecond, &reads));
    group.Spawn(MigrateAndCheck(&rig.cl, 1, slot, to));
    rig.Settle();
  }
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(rig.cl.HomeOf(1, slot), to);
}

TEST(ClusterTest, MigrateShardValidatesArguments) {
  ClusterRig rig;
  ASSERT_TRUE(rig.cl.AddTenant(1, GlobalReservation{}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_EQ((co_await rig.cl.MigrateShard(9, 0, 1)).code(),
              StatusCode::kNotFound);
    EXPECT_EQ((co_await rig.cl.MigrateShard(1, -1, 1)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((co_await rig.cl.MigrateShard(1, 0, 99)).code(),
              StatusCode::kInvalidArgument);
    // Migrating a slot to its current home is a no-op success.
    const int home = rig.cl.shard_map().HomeOf(1, 0);
    EXPECT_TRUE((co_await rig.cl.MigrateShard(1, 0, home)).ok());
  }());
}

TEST(ClusterTest, ScanFansOutAcrossNodesAndMergesInKeyOrder) {
  ClusterRig rig;
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0, 100.0}).value();
  rig.RunTask([&]() -> sim::Task<void> {
    // Keys hash across every slot (and so every node); the scan must visit
    // them all and return one globally key-ordered run.
    for (int i = 0; i < 64; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "k%04d", i);
      co_await tenant.Put(buf, "v" + std::to_string(i));
    }
    const Result<ScanEntries> r =
        co_await tenant.Scan(std::string(), std::string(), 0);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) {
      co_return;
    }
    EXPECT_EQ(r.value().size(), 64u);
    for (size_t i = 0; i + 1 < r.value().size(); ++i) {
      EXPECT_LT(r.value()[i].first, r.value()[i + 1].first);
    }
    for (size_t i = 0; i < r.value().size(); ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "k%04d", static_cast<int>(i));
      EXPECT_EQ(r.value()[i].first, buf);
      EXPECT_EQ(r.value()[i].second, "v" + std::to_string(i));
    }
    // Bounded range: [k0010, k0020) → exactly ten entries.
    const Result<ScanEntries> mid = co_await tenant.Scan("k0010", "k0020", 0);
    EXPECT_TRUE(mid.ok());
    EXPECT_EQ(mid.ok() ? mid.value().size() : 0, 10u);
    // Limit truncates the merged run, not any single node's slice.
    const Result<ScanEntries> lim =
        co_await tenant.Scan(std::string(), std::string(), 5);
    EXPECT_TRUE(lim.ok());
    if (lim.ok() && lim.value().size() == 5) {
      EXPECT_EQ(lim.value()[0].first, "k0000");
      EXPECT_EQ(lim.value()[4].first, "k0004");
    } else if (lim.ok()) {
      ADD_FAILURE() << "limit 5 returned " << lim.value().size();
    }
    // Degenerate range is an empty success.
    const Result<ScanEntries> empty = co_await tenant.Scan("z", "a", 0);
    EXPECT_TRUE(empty.ok());
    EXPECT_TRUE(!empty.ok() || empty.value().empty());
  }());
}

TEST(ClusterTest, ScanSurvivesShardMigration) {
  ClusterRig rig;
  TenantHandle tenant = rig.cl.AddTenant(1, GlobalReservation{}).value();
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 48; ++i) {
      co_await tenant.Put("m" + std::to_string(100 + i), "v");
    }
    // Move a handful of slots; scans must still see every key exactly once
    // from the slots' new homes.
    for (int slot = 0; slot < 4; ++slot) {
      const int home = rig.cl.shard_map().HomeOf(1, slot);
      co_await rig.cl.MigrateShard(1, slot,
                                   (home + 1) % rig.cl.num_nodes());
    }
    const Result<ScanEntries> r =
        co_await tenant.Scan(std::string(), std::string(), 0);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ok() ? r.value().size() : 0, 48u);
  }());
}

// DELETE is a write verb: at RF=2 it fans out like a PUT and is accounted
// as one. Follower fan-out counts the key bytes, the client and node
// request spans are PUTs of key-size bytes, and every replica bills the
// key size as a PUT and drops the key from its object cache.
TEST(ClusterTest, Rf2DeleteIsAccountedAsKeySizedPut) {
  ClusterOptions opt = TestOptions(/*nodes=*/2, /*rf=*/2);
  opt.node_options.enable_cache = true;
  opt.node_options.scheduler_options.span_capacity = 1 << 14;
  ClusterRig rig(std::move(opt));
  Result<TenantHandle> h = rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0});
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  TenantHandle tenant = h.value();
  // Keys over 1 KiB, so billing by key size shows in normalized requests
  // (anything under 1 KiB rounds up to one).
  std::vector<std::string> keys;
  uint64_t key_bytes = 0;
  double key_norm = 0.0;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("del" + std::to_string(i) +
                   std::string(1100 + 97 * i, 'k'));
    key_bytes += keys.back().size();
    key_norm += iosched::NormalizedRequests(keys.back().size());
  }
  rig.RunTask([&]() -> sim::Task<void> {
    for (const std::string& k : keys) {
      EXPECT_TRUE((co_await tenant.Put(k, "v")).ok());
    }
  }());

  const ClusterStats before = rig.cl.Snapshot();
  const uint64_t client_before = rig.cl.client_spans()->total_recorded();
  uint64_t node_before[2];
  double billed_before[2];
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(rig.cl.node(n).cache()->entries(), keys.size());
    node_before[n] = rig.cl.node(n).scheduler().spans()->total_recorded();
    billed_before[n] = rig.cl.node(n).tracker().NormalizedRequestsTotal(
        1, iosched::AppRequest::kPut);
  }
  rig.RunTask([&]() -> sim::Task<void> {
    for (const std::string& k : keys) {
      EXPECT_TRUE((co_await tenant.Delete(k)).ok());
    }
    for (const std::string& k : keys) {
      EXPECT_EQ((co_await tenant.Get(k)).status().code(),
                StatusCode::kNotFound);
    }
  }());

  const ClusterStats after = rig.cl.Snapshot();
  uint64_t fanout_puts = 0;
  uint64_t fanout_bytes = 0;
  for (int n = 0; n < 2; ++n) {
    fanout_puts += after.nodes[n].replication.fanout_puts -
                   before.nodes[n].replication.fanout_puts;
    fanout_bytes += after.nodes[n].replication.fanout_bytes -
                    before.nodes[n].replication.fanout_bytes;
  }
  EXPECT_EQ(fanout_puts, keys.size());
  EXPECT_EQ(fanout_bytes, key_bytes);

  // Client spans: one PUT span per delete, in issue order, sized by key.
  std::vector<uint64_t> client_put_bytes;
  const std::vector<obs::SpanRecord> client = rig.cl.client_spans()->Spans();
  ASSERT_EQ(rig.cl.client_spans()->dropped(), 0u);
  for (size_t i = client_before; i < client.size(); ++i) {
    if (client[i].app == static_cast<uint8_t>(iosched::AppRequest::kPut)) {
      EXPECT_EQ(client[i].kind, obs::SpanKind::kClientRequest);
      client_put_bytes.push_back(client[i].bytes);
    }
  }
  std::vector<uint64_t> want_bytes;
  for (const std::string& k : keys) {
    want_bytes.push_back(k.size());
  }
  EXPECT_EQ(client_put_bytes, want_bytes);

  for (int n = 0; n < 2; ++n) {
    kv::StorageNode& node = rig.cl.node(n);
    std::vector<uint64_t> node_put_bytes;
    const std::vector<obs::SpanRecord> spans =
        node.scheduler().spans()->Spans();
    ASSERT_EQ(node.scheduler().spans()->dropped(), 0u);
    for (size_t i = node_before[n]; i < spans.size(); ++i) {
      if (spans[i].kind == obs::SpanKind::kRequest &&
          spans[i].app == static_cast<uint8_t>(iosched::AppRequest::kPut)) {
        node_put_bytes.push_back(spans[i].bytes);
      }
    }
    EXPECT_EQ(node_put_bytes, want_bytes) << "node " << n;
    EXPECT_EQ(node.cache()->entries(), 0u) << "node " << n;
    EXPECT_NEAR(node.tracker().NormalizedRequestsTotal(
                    1, iosched::AppRequest::kPut) -
                    billed_before[n],
                key_norm, 1e-9)
        << "node " << n;
  }
}

TEST(ClusterTest, CompactionPolicyPlumbsToEveryNodeAndSnapshot) {
  ClusterRig rig;
  ASSERT_TRUE(rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0},
                               lsm::CompactionPolicy::kSizeTiered)
                  .ok());
  ASSERT_TRUE(rig.cl.AddTenant(2, GlobalReservation{100.0, 100.0}).ok());
  const ClusterStats stats = rig.cl.Snapshot();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].compaction, lsm::CompactionPolicy::kSizeTiered);
  EXPECT_EQ(stats.tenants[1].compaction, lsm::CompactionPolicy::kLeveled);
  const std::string json = ClusterStatsToJson(stats);
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(json, &parsed, &error)) << error;
  const obs::JsonValue* tenants = parsed.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->array.size(), 2u);
  ASSERT_NE(tenants->array[0].Find("compaction"), nullptr);
  EXPECT_EQ(tenants->array[0].Find("compaction")->string_value, "tiered");
  EXPECT_EQ(tenants->array[1].Find("compaction")->string_value, "leveled");
  ASSERT_NE(tenants->array[0].Find("global_scan_rps"), nullptr);
}

TEST(ClusterTest, SnapshotCoversNodesTenantsAndRebalances) {
  ClusterRig rig(2);
  ASSERT_TRUE(rig.cl.AddTenant(1, GlobalReservation{10.0, 10.0}).ok());
  const ClusterStats stats = rig.cl.Snapshot();
  EXPECT_EQ(stats.nodes.size(), 2u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, 1u);
  EXPECT_EQ(stats.tenants[0].slot_homes.size(),
            static_cast<size_t>(rig.cl.shard_map().shards_per_tenant()));
  const std::string json = ClusterStatsToJson(stats);
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(json, &parsed, &error)) << error;
  ASSERT_NE(parsed.Find("nodes"), nullptr);
  EXPECT_EQ(parsed.Find("nodes")->array.size(), 2u);
  ASSERT_NE(parsed.Find("tenants"), nullptr);
  EXPECT_EQ(parsed.Find("tenants")->array.size(), 1u);
}

// The cluster's tenant table and every node registry hand out rows in
// arrival order; the outputs still walk tenants in ascending id order.
TEST(ClusterTest, NonMonotonicAdmissionKeepsIdOrder) {
  const std::vector<TenantId> arrival = {900, 3, 4000000000u, 17};
  const std::vector<TenantId> by_id = {3, 17, 900, 4000000000u};
  ClusterRig rig(TestOptions(4, 2));
  std::vector<TenantHandle> handles;
  for (const TenantId t : arrival) {
    Result<TenantHandle> h =
        rig.cl.AddTenant(t, GlobalReservation{50.0, 50.0});
    ASSERT_TRUE(h.ok()) << t;
    handles.push_back(h.value());
  }
  rig.RunTask([&]() -> sim::Task<void> {
    const Status s = co_await rig.cl.MigrateShard(4, 0, 1);
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
  }());

  const auto key_of = [](TenantId t, int i) {
    return "t" + std::to_string(t) + "-" + std::to_string(i);
  };
  rig.RunTask([&]() -> sim::Task<void> {
    for (TenantHandle& h : handles) {
      for (int i = 0; i < 16; ++i) {
        const std::string key = key_of(h.tenant(), i);
        EXPECT_TRUE((co_await h.Put(key, "v-" + key)).ok()) << key;
      }
    }
  }());
  rig.Settle();

  const ClusterStats stats = rig.cl.Snapshot();
  std::vector<TenantId> listed;
  for (const ClusterStats::TenantEntry& e : stats.tenants) {
    listed.push_back(e.tenant);
  }
  EXPECT_EQ(listed, by_id);
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(ClusterStatsToJson(stats), &parsed, &error))
      << error;
  listed.clear();
  for (const obs::JsonValue& e : parsed.Find("tenants")->array) {
    listed.push_back(static_cast<TenantId>(e.Find("tenant")->number));
  }
  EXPECT_EQ(listed, by_id);

  // Every node lists, audits and exports SLA rows in id order.
  for (int n = 0; n < rig.cl.num_nodes(); ++n) {
    kv::StorageNode& node = rig.cl.node(n);
    node.policy().RunIntervalStep();
    const std::vector<TenantId> hosted = node.tenants();
    EXPECT_TRUE(std::is_sorted(hosted.begin(), hosted.end())) << n;
    EXPECT_EQ(node.policy().sla().tenants(), hosted) << n;
    std::vector<TenantId> audited;
    for (const obs::AuditTenantEntry& e :
         node.policy().audit_log().records().back().tenants) {
      audited.push_back(e.tenant);
    }
    EXPECT_EQ(audited, hosted) << n;
  }

  // Crash and restart a node: every tenant is reachable afterwards.
  const int victim = rig.cl.HomeOf(4000000000u, 0);
  ASSERT_TRUE(rig.cl.CrashNode(victim).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    const Status s = co_await rig.cl.RestartNode(victim);
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (TenantHandle& h : handles) {
      for (int i = 0; i < 16; ++i) {
        const std::string key = key_of(h.tenant(), i);
        const Result<std::string> r = co_await h.Get(key);
        EXPECT_TRUE(r.ok()) << key << ": " << r.status().ToString();
        EXPECT_EQ(r.ok() ? r.value() : "", "v-" + key);
      }
    }
  }());
}

}  // namespace
}  // namespace libra::cluster
