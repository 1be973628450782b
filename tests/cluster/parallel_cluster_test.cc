// Engine-level cluster tests: the Cluster seam layer on a MultiLoop —
// request routing across per-node loops, thread-count-independent stats,
// the fault-injector delay floor against the engine lookahead, crash
// failover + recovery, lossless migration, and every visible result
// checked against a model of acknowledged writes at several worker counts.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fault_injector.h"
#include "src/cluster/global_provisioner.h"
#include "src/common/rng.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"
#include "tests/cluster/cluster_rig.h"

namespace libra::cluster {
namespace {

using iosched::TenantId;

std::string Key(int i) { return "k" + std::to_string(i); }
std::string Val(int i) { return "v" + std::to_string(i); }

// Coroutines that outlive their spawning statement are free functions
// taking parameters by value (a capturing lambda's closure dies at the end
// of the spawning full expression).
sim::Task<void> PutAll(TenantHandle h, int n) {
  for (int i = 0; i < n; ++i) {
    const Status s = co_await h.Put(Key(i), Val(i));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

sim::Task<void> GetAll(TenantHandle h, int n, uint64_t* ok) {
  for (int i = 0; i < n; ++i) {
    const Result<std::string> r = co_await h.Get(Key(i));
    if (r.ok() && r.value() == Val(i)) {
      ++*ok;
    } else {
      ADD_FAILURE() << Key(i) << ": "
                    << (r.ok() ? "wrong value" : r.status().ToString());
    }
  }
}

sim::Task<void> MigrateAndCheck(Cluster* cl, TenantId tenant, int slot,
                                int to) {
  const Status s = co_await cl->MigrateShard(tenant, slot, to);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

sim::Task<void> RestartAndCheck(Cluster* cl, int node) {
  const Status s = co_await cl->RestartNode(node);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ParallelClusterTest, ServesRequestsAcrossNodeLoops) {
  ClusterRig rig(TestOptions(/*nodes=*/4), /*threads=*/1);
  TenantHandle h = rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask(PutAll(h, 32));
  uint64_t ok = 0;
  rig.RunTask(GetAll(h, 32, &ok));
  EXPECT_EQ(ok, 32u);
  // The traffic really crossed loops: every request is at least a
  // request + response message pair.
  EXPECT_GE(rig.ml.messages_sent(), 128u);
  EXPECT_GT(rig.ml.epochs(), 0u);
}

TEST(ParallelClusterTest, DeleteAndMultiGetThroughSeams) {
  ClusterRig rig(TestOptions(/*nodes=*/3), /*threads=*/1);
  TenantHandle h = rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask([](TenantHandle t) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE((co_await t.Put(Key(i), Val(i))).ok());
    }
    EXPECT_TRUE((co_await t.Delete(Key(3))).ok());
    std::vector<std::string> keys;
    for (int i = 0; i < 8; ++i) {
      keys.push_back(Key(i));
    }
    const auto results = co_await t.MultiGet(keys);
    EXPECT_EQ(results.size(), keys.size());
    if (results.size() != keys.size()) {
      co_return;  // ASSERT_* returns are not usable inside a coroutine
    }
    for (int i = 0; i < 8; ++i) {
      if (i == 3) {
        EXPECT_EQ(results[i].status().code(), StatusCode::kNotFound);
      } else {
        EXPECT_TRUE(results[i].ok()) << keys[i];
        EXPECT_EQ(results[i].ok() ? results[i].value() : "", Val(i));
      }
    }
  }(h));
}

// One full scenario — admission, traffic, provisioner interval steps via
// barrier hooks, stop, drain — rendered to the stats JSON. The render must
// be byte-identical for any worker count.
std::string StatsScenario(int threads) {
  ClusterRig rig(TestOptions(/*nodes=*/3), threads);
  TenantHandle h1 =
      rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  TenantHandle h2 =
      rig.cl.AddTenant(2, GlobalReservation{300.0, 300.0}).value();
  rig.cl.Start();
  sim::Detach(PutAll(h1, 48));
  sim::Detach(PutAll(h2, 16));
  rig.ml.RunUntil(3 * kSecond);  // a few provisioner intervals pass idle
  rig.cl.Stop();
  rig.ml.Run();
  return ClusterStatsToJson(rig.cl.Snapshot());
}

TEST(ParallelClusterTest, StatsJsonIdenticalAcrossThreadCounts) {
  const std::string one = StatsScenario(1);
  const std::string three = StatsScenario(3);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
}

TEST(ParallelClusterTest, FaultDelayFloorValidation) {
  FaultInjectorOptions opt;
  opt.rpc_delay_rate = 0.5;
  opt.rpc_delay_min = 10 * kMicrosecond;

  // Configs that never delay are fine at any lookahead.
  FaultInjectorOptions inactive = opt;
  inactive.rpc_delay_rate = 0.0;
  EXPECT_TRUE(CheckFaultDelayFloor(inactive, kRpcLatency).ok());

  // A delay draw below the lookahead could land in an epoch that already
  // ran: rejected with both values and the hazard spelled out.
  const Status s = CheckFaultDelayFloor(opt, kRpcLatency);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find(std::to_string(10 * kMicrosecond)),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find(std::to_string(kRpcLatency)), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("lookahead"), std::string::npos) << s.message();

  FaultInjectorOptions good = opt;
  good.rpc_delay_min = kRpcLatency;
  EXPECT_TRUE(CheckFaultDelayFloor(good, kRpcLatency).ok());
}

TEST(ParallelClusterTest, FaultInjectorRefusesShortDelaysOnParallelEngine) {
  ClusterRig rig(TestOptions(/*nodes=*/2), /*threads=*/1);
  FaultInjectorOptions bad;
  bad.rpc_delay_rate = 0.25;
  bad.rpc_delay_min = rig.ml.lookahead() - 1;
  FaultInjector rejected(rig.ml.loop(0), rig.cl, bad);
  EXPECT_FALSE(rejected.config_status().ok());
  EXPECT_EQ(rejected.config_status().code(), StatusCode::kInvalidArgument);

  FaultInjectorOptions good = bad;
  good.rpc_delay_min = rig.ml.lookahead();
  FaultInjector accepted(rig.ml.loop(0), rig.cl, good);
  EXPECT_TRUE(accepted.config_status().ok());
}

TEST(ParallelClusterTest, CrashFailoverAndRecoveryAtRf2) {
  ClusterRig rig(TestOptions(/*nodes=*/4, /*rf=*/2), /*threads=*/2);
  TenantHandle h = rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask(PutAll(h, 64));

  ASSERT_TRUE(rig.cl.CrashNode(1).ok());
  rig.ml.Run();  // the crash message lands on node 1's loop
  EXPECT_FALSE(rig.cl.NodeAlive(1));

  // Every key still reads back: requests fail over to the live replica.
  uint64_t ok = 0;
  rig.RunTask(GetAll(h, 64, &ok));
  EXPECT_EQ(ok, 64u);

  rig.RunTask(RestartAndCheck(&rig.cl, 1));
  EXPECT_TRUE(rig.cl.NodeAlive(1));
  EXPECT_FALSE(rig.cl.NodeSyncing(1));  // catch-up completed

  ok = 0;
  rig.RunTask(GetAll(h, 64, &ok));
  EXPECT_EQ(ok, 64u);
}

TEST(ParallelClusterTest, MigrationIsLosslessOnParallelEngine) {
  ClusterRig rig(TestOptions(/*nodes=*/4), /*threads=*/2);
  const TenantId tenant = 1;
  TenantHandle h =
      rig.cl.AddTenant(tenant, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask(PutAll(h, 64));

  const int slot = 0;
  const int from = rig.cl.shard_map().HomeOf(tenant, slot);
  const int to = (from + 1) % rig.cl.num_nodes();
  rig.RunTask(MigrateAndCheck(&rig.cl, tenant, slot, to));
  EXPECT_EQ(rig.cl.HomeOf(tenant, slot), to);

  uint64_t moved = 0;
  for (const auto& rec : rig.cl.rebalance_log().records()) {
    if (rec.kind == obs::RebalanceRecord::Kind::kMigration &&
        rec.tenant == tenant && rec.slot == slot) {
      moved = rec.keys_moved;
    }
  }
  EXPECT_GT(moved, 0u);

  uint64_t ok = 0;
  rig.RunTask(GetAll(h, 64, &ok));
  EXPECT_EQ(ok, 64u);
}

// Drives a seeded sequence of PUT / DELETE / GET (present and never-written
// keys) through one tenant, one request at a time, and checks every visible
// result against a std::map model of the acknowledged writes; a final full
// scan must return exactly the model. Counts the results checked.
sim::Task<void> CheckAgainstModel(TenantHandle h, uint64_t seed, int ops,
                                  int* checked) {
  Rng rng(seed);
  std::map<std::string, std::string> model;
  for (int i = 0; i < ops; ++i) {
    const std::string key = Key(static_cast<int>(rng.NextU64(24)));
    const uint64_t dice = rng.NextU64(10);
    if (dice < 4) {
      const std::string value = Val(i);
      const Status s = co_await h.Put(key, value);
      EXPECT_TRUE(s.ok()) << "put " << key << ": " << s.ToString();
      model[key] = value;
    } else if (dice < 6) {
      const Status s = co_await h.Delete(key);
      EXPECT_TRUE(s.ok()) << "delete " << key << ": " << s.ToString();
      model.erase(key);
    } else {
      // One GET in four asks for a key no one ever wrote.
      const std::string probe = dice == 9 ? "absent-" + key : key;
      const Result<std::string> r = co_await h.Get(probe);
      const auto it = model.find(probe);
      if (it == model.end()) {
        EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
            << "get " << probe << " at op " << i;
      } else {
        EXPECT_TRUE(r.ok()) << "get " << probe << ": "
                            << r.status().ToString();
        EXPECT_EQ(r.ok() ? r.value() : "", it->second)
            << "get " << probe << " at op " << i;
      }
    }
    ++*checked;
  }
  const Result<ScanEntries> all =
      co_await h.Scan(std::string(), std::string(), 0);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  const ScanEntries expected(model.begin(), model.end());
  EXPECT_EQ(all.ok() ? all.value() : ScanEntries{}, expected);
  ++*checked;
}

TEST(ParallelClusterTest, ResultsMatchAckedModel) {
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ClusterRig rig(TestOptions(/*nodes=*/3, /*rf=*/2), threads);
    TenantHandle a =
        rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
    TenantHandle b =
        rig.cl.AddTenant(2, GlobalReservation{500.0, 500.0}).value();
    // Two tenants interleave on the same nodes; each checks its own model.
    int checked_a = 0;
    int checked_b = 0;
    sim::Detach(CheckAgainstModel(a, 7, 200, &checked_a));
    sim::Detach(CheckAgainstModel(b, 8, 200, &checked_b));
    rig.Settle();
    EXPECT_EQ(checked_a, 201);
    EXPECT_EQ(checked_b, 201);
  }
}

}  // namespace
}  // namespace libra::cluster
