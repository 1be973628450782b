// Crash/recovery tests for the replicated cluster layer: RF>1 replica
// placement, write fan-out and read failover across a node crash, WAL
// replay plus VOP-priced catch-up on restart, TenantHandle retry/backoff
// semantics, reservation mass conservation across membership changes, and
// FaultInjector determinism.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fault_injector.h"
#include "src/cluster/global_provisioner.h"
#include "src/sim/sync.h"
#include "tests/cluster/cluster_rig.h"

namespace libra::cluster {
namespace {

using iosched::Reservation;
using iosched::TenantId;

std::string Key(int i) { return "k" + std::to_string(i); }
std::string Val(int i) { return "v" + std::to_string(i); }

// Sum of `tenant`'s local reservations across currently-alive nodes. Dead
// nodes are excluded: their policies keep the stale pre-crash share, which
// is exactly the mass the re-split must have moved onto the survivors.
// Read with the engine settled, so every install has landed.
Reservation SumAliveReservations(Cluster& cl, TenantId tenant) {
  Reservation sum;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    if (!cl.NodeAlive(n)) {
      continue;
    }
    const Reservation r = cl.node(n).policy().GetReservation(tenant);
    EXPECT_GE(r.get_rps(), 0.0);
    EXPECT_GE(r.put_rps(), 0.0);
    sum.get_rps() += r.get_rps();
    sum.put_rps() += r.put_rps();
  }
  return sum;
}

void ExpectSumMatchesGlobal(Cluster& cl, TenantId tenant,
                            const GlobalReservation& global) {
  const Reservation sum = SumAliveReservations(cl, tenant);
  EXPECT_NEAR(sum.get_rps(), global.get_rps(), 1e-6) << "tenant " << tenant;
  EXPECT_NEAR(sum.put_rps(), global.put_rps(), 1e-6) << "tenant " << tenant;
}

TEST(ReplicationTest, ReplicaSetsAreDistinctAndLeaderFirst) {
  ClusterRig rig(TestOptions(4, 2));
  EXPECT_TRUE(rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).ok());
  const ShardMap& map = rig.cl.shard_map();
  EXPECT_EQ(map.replication_factor(), 2);
  for (int slot = 0; slot < map.shards_per_tenant(); ++slot) {
    const Replicas replicas = map.ReplicasOf(1, slot);
    EXPECT_EQ(replicas.size(), 2u) << "slot " << slot;
    EXPECT_EQ(replicas[0], map.HomeOf(1, slot)) << "slot " << slot;
    EXPECT_NE(replicas[0], replicas[1]) << "slot " << slot;
    for (int r : replicas) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 4);
    }
  }
}

TEST(ReplicationTest, ReplicationFactorClampsToClusterSize) {
  ClusterRig rig(TestOptions(2, 5));
  EXPECT_TRUE(rig.cl.AddTenant(1, GlobalReservation{}).ok());
  EXPECT_EQ(rig.cl.shard_map().replication_factor(), 2);
  const Replicas replicas = rig.cl.shard_map().ReplicasOf(1, 0);
  EXPECT_EQ(replicas.size(), 2u);
}

TEST(ReplicationTest, AckedWritesSurviveLeaderCrash) {
  ClusterRig rig(TestOptions(4, 2));
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE((co_await tenant.Put(Key(i), Val(i))).ok()) << i;
    }
    // Crash the leader of k0's slot — reads of k0 must fail over.
    const int victim = rig.cl.shard_map().NodeOfKey(1, Key(0));
    EXPECT_TRUE(rig.cl.CrashNode(victim).ok());
    EXPECT_FALSE(rig.cl.NodeAlive(victim));
    // Every acked write stays readable: each slot has a live replica.
    for (int i = 0; i < 64; ++i) {
      const Result<std::string> r = co_await tenant.Get(Key(i));
      EXPECT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
      EXPECT_EQ(r.value(), Val(i));
    }
    // Writes keep landing while the node is down (acked by survivors).
    for (int i = 64; i < 96; ++i) {
      EXPECT_TRUE((co_await tenant.Put(Key(i), Val(i))).ok()) << i;
    }
    for (int i = 64; i < 96; ++i) {
      const Result<std::string> r = co_await tenant.Get(Key(i));
      EXPECT_TRUE(r.ok()) << Key(i);
      EXPECT_EQ(r.value(), Val(i));
    }
  }());

  const int victim = rig.cl.shard_map().NodeOfKey(1, Key(0));
  {
    const ClusterStats stats = rig.cl.Snapshot();
    EXPECT_FALSE(stats.nodes[victim].replication.alive);
    uint64_t fanout = 0;
    uint64_t failover = 0;
    int leader_slots = 0;
    int follower_slots = 0;
    for (const kv::NodeStats& n : stats.nodes) {
      EXPECT_TRUE(n.replication.enabled);
      fanout += n.replication.fanout_puts;
      failover += n.replication.failover_gets;
      leader_slots += n.replication.leader_slots;
      follower_slots += n.replication.follower_slots;
    }
    EXPECT_GT(fanout, 0u);    // RF=2: every put forwarded once
    EXPECT_GT(failover, 0u);  // k0's reads were served by a follower
    EXPECT_EQ(leader_slots, rig.cl.shard_map().shards_per_tenant());
    EXPECT_EQ(follower_slots, rig.cl.shard_map().shards_per_tenant());
  }
}

TEST(RecoveryTest, RestartReplaysWalAndCatchesUp) {
  ClusterRig rig(TestOptions(4, 2));
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{500.0, 500.0}).value();
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 32; ++i) {
      EXPECT_TRUE((co_await tenant.Put(Key(i), Val(i))).ok());
    }
    const int victim = rig.cl.shard_map().NodeOfKey(1, Key(0));
    EXPECT_TRUE(rig.cl.CrashNode(victim).ok());
    // Writes the victim misses entirely — catch-up must copy these in.
    for (int i = 100; i < 132; ++i) {
      EXPECT_TRUE((co_await tenant.Put(Key(i), Val(i))).ok());
    }
    const Status rs = co_await rig.cl.RestartNode(victim);
    EXPECT_TRUE(rs.ok()) << rs.ToString();
    EXPECT_TRUE(rig.cl.NodeAlive(victim));
    EXPECT_FALSE(rig.cl.NodeSyncing(victim));

    // The cluster as a whole lost nothing.
    for (int i = 0; i < 32; ++i) {
      const Result<std::string> r = co_await tenant.Get(Key(i));
      EXPECT_TRUE(r.ok()) << Key(i);
      EXPECT_EQ(r.value(), Val(i));
    }
  }());

  // The victim's own copy now holds writes it missed while down: read
  // directly from the node (bypassing cluster failover) for every missed
  // key whose replica set includes the victim.
  const int victim = rig.cl.shard_map().NodeOfKey(1, Key(0));
  int checked = 0;
  for (int i = 100; i < 132; ++i) {
    const int slot = rig.cl.shard_map().SlotOfKey(Key(i));
    const Replicas replicas = rig.cl.shard_map().ReplicasOf(1, slot);
    bool hosts = false;
    for (int r : replicas) {
      hosts |= (r == victim);
    }
    if (!hosts) {
      continue;
    }
    const Result<std::string> r = ReadOnNode(rig, victim, 1, Key(i));
    EXPECT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ok() ? r.value() : "", Val(i));
    ++checked;
  }
  EXPECT_GT(checked, 0);

  {
    const ClusterStats stats = rig.cl.Snapshot();
    const kv::NodeStats& vs = stats.nodes[victim];
    EXPECT_EQ(vs.recovery.crashes, 1u);
    EXPECT_EQ(vs.recovery.restarts, 1u);
    // Pre-crash writes were memtable-resident: they came back via WAL
    // replay, and the replay is visible in the recovery section.
    EXPECT_GT(vs.recovery.wal_files_replayed, 0u);
    EXPECT_GT(vs.recovery.replay_records, 0u);
    EXPECT_GT(vs.recovery.replay_bytes, 0u);
    // Catch-up copied the missed keys in, priced as kReplicate VOPs.
    EXPECT_GT(vs.replication.catchup_keys, 0u);
    EXPECT_GT(vs.replication.catchup_bytes, 0u);
    EXPECT_EQ(vs.replication.catchup_lag_slots, 0);
    EXPECT_GT(vs.recovery.rereplication_vops, 0.0);
  }
}

TEST(RecoveryTest, Rf1RestartRecoversTheWalTail) {
  // Single node, no replicas: the only thing that survives a crash is the
  // WAL. Memtable-resident writes must all come back on restart.
  ClusterRig rig(TestOptions(1, 1));
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE((co_await tenant.Put(Key(i), Val(i))).ok());
    }
    EXPECT_TRUE(rig.cl.CrashNode(0).ok());
    // No replica, no retry: requests fail fast with kUnavailable.
    const Result<std::string> down = co_await tenant.Get(Key(0));
    EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ((co_await tenant.Put("x", "y")).code(),
              StatusCode::kUnavailable);

    const Status rs = co_await rig.cl.RestartNode(0);
    EXPECT_TRUE(rs.ok()) << rs.ToString();
    for (int i = 0; i < 16; ++i) {
      const Result<std::string> r = co_await tenant.Get(Key(i));
      EXPECT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
      EXPECT_EQ(r.value(), Val(i));
    }
  }());
  const kv::NodeStats stats = rig.cl.node(0).Snapshot();
  EXPECT_EQ(stats.recovery.crashes, 1u);
  EXPECT_EQ(stats.recovery.restarts, 1u);
  EXPECT_EQ(stats.recovery.replay_records, 16u);
  EXPECT_GT(stats.recovery.replay_bytes, 0u);
}

TEST(RecoveryTest, CrashingACrashedNodeFails) {
  ClusterRig rig(TestOptions(2, 1));
  EXPECT_TRUE(rig.cl.AddTenant(1, GlobalReservation{}).ok());
  EXPECT_TRUE(rig.cl.CrashNode(1).ok());
  EXPECT_EQ(rig.cl.CrashNode(1).code(), StatusCode::kFailedPrecondition);
  rig.RunTask([&]() -> sim::Task<void> {
    const Status first = co_await rig.cl.RestartNode(1);
    EXPECT_TRUE(first.ok()) << first.ToString();
    const Status again = co_await rig.cl.RestartNode(1);
    EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  }());
}

TEST(RetryTest, BackoffRidesThroughCrashAndRestart) {
  ClusterOptions opt = TestOptions(1, 1);
  opt.retry.max_retries = 20;
  opt.retry.initial_backoff = 1 * kMillisecond;
  ClusterRig rig(opt);
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();
  FaultInjector inj(rig.loop(), rig.cl, FaultInjectorOptions{});
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await tenant.Put(Key(0), Val(0))).ok());
    const SimTime crash_at = rig.loop().Now() + 1 * kMillisecond;
    const SimTime restart_at = rig.loop().Now() + 60 * kMillisecond;
    inj.ScheduleCrash(0, crash_at);
    inj.ScheduleRestart(0, restart_at);
    co_await sim::SleepFor(rig.loop(), 5 * kMillisecond);
    EXPECT_FALSE(rig.cl.NodeAlive(0));
    // The read arrives while the node is down; exponential backoff keeps
    // it alive until the scheduled restart brings the node back.
    const Result<std::string> r = co_await tenant.Get(Key(0));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), Val(0));
    EXPECT_GE(rig.loop().Now(), restart_at);
  }());
  EXPECT_EQ(inj.crashes_injected(), 1u);
  EXPECT_EQ(inj.restarts_injected(), 1u);
}

TEST(RetryTest, DeadlineExceededInsteadOfHanging) {
  ClusterOptions opt = TestOptions(1, 1);
  opt.retry.max_retries = 1 << 20;  // deadline, not the count, must stop it
  opt.retry.initial_backoff = 1 * kMillisecond;
  opt.retry.deadline = 20 * kMillisecond;
  ClusterRig rig(opt);
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();
  EXPECT_TRUE(rig.cl.CrashNode(0).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    const SimTime start = rig.loop().Now();
    const Result<std::string> r = co_await tenant.Get(Key(0));
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
    const SimDuration elapsed = rig.loop().Now() - start;
    EXPECT_GE(elapsed, opt.retry.deadline);
    EXPECT_LE(elapsed, opt.retry.deadline + 10 * kMillisecond);

    const SimTime put_start = rig.loop().Now();
    EXPECT_EQ((co_await tenant.Put(Key(0), "new")).code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_LE(rig.loop().Now() - put_start,
              opt.retry.deadline + 10 * kMillisecond);
  }());
}

TEST(RetryTest, ExhaustionSurfacesTheLastUnderlyingError) {
  ClusterOptions opt = TestOptions(1, 1);
  opt.retry.max_retries = 3;
  opt.retry.initial_backoff = 1 * kMillisecond;
  ClusterRig rig(opt);
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();
  EXPECT_TRUE(rig.cl.CrashNode(0).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    const SimTime start = rig.loop().Now();
    const Result<std::string> r = co_await tenant.Get(Key(0));
    // Not kDeadlineExceeded: with no deadline set, running out of retries
    // surfaces what the last attempt actually saw.
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << r.status().ToString();
    // Three backoffs happened: 1 + 2 + 4 ms.
    EXPECT_GE(rig.loop().Now() - start, 7 * kMillisecond);
  }());
}

TEST(RetryTest, NonRetryableErrorsAreNotRetried) {
  ClusterOptions opt = TestOptions(1, 1);
  opt.retry.max_retries = 10;
  opt.retry.initial_backoff = 10 * kMillisecond;
  ClusterRig rig(opt);
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();
  rig.RunTask([&]() -> sim::Task<void> {
    const SimTime start = rig.loop().Now();
    const Result<std::string> r = co_await tenant.Get("never-written");
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
    // A kNotFound is a real answer: no backoff sleeps were taken.
    EXPECT_LT(rig.loop().Now() - start, 10 * kMillisecond);
  }());
}

TEST(MembershipTest, ReservationMassConservedAcrossCrashAndRestart) {
  ClusterRig rig(TestOptions(4, 2));
  const GlobalReservation g1{400.0, 200.0};
  const GlobalReservation g2{300.0, 100.0};
  EXPECT_TRUE(rig.cl.AddTenant(1, g1).ok());
  EXPECT_TRUE(rig.cl.AddTenant(2, g2).ok());
  rig.Settle();
  ExpectSumMatchesGlobal(rig.cl, 1, g1);
  ExpectSumMatchesGlobal(rig.cl, 2, g2);

  // Crash: the dead node's share must move to survivors, exactly.
  EXPECT_TRUE(rig.cl.CrashNode(2).ok());
  rig.Settle();
  ExpectSumMatchesGlobal(rig.cl, 1, g1);
  ExpectSumMatchesGlobal(rig.cl, 2, g2);

  // Restart: the node re-enters the split; the sum is still exact.
  rig.RunTask([&]() -> sim::Task<void> {
    const Status s = co_await rig.cl.RestartNode(2);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }());
  for (int n = 0; n < 4; ++n) {
    EXPECT_TRUE(rig.cl.NodeAlive(n));
  }
  ExpectSumMatchesGlobal(rig.cl, 1, g1);
  ExpectSumMatchesGlobal(rig.cl, 2, g2);
}

TEST(MembershipTest, ProvisionerKeepsExactSumWhileNodeIsDown) {
  ClusterRig rig(TestOptions(4, 2));
  const GlobalReservation g1{600.0, 300.0};
  EXPECT_TRUE(rig.cl.AddTenant(1, g1).ok());
  EXPECT_TRUE(rig.cl.CrashNode(1).ok());
  GlobalProvisioner& prov = rig.cl.provisioner();
  // Demand-driven re-splits while a node is down must never route
  // reservation mass back onto it or strand any on the survivors.
  for (int i = 0; i < 3; ++i) {
    rig.ml.RunUntil(rig.loop().Now() + kSecond);
    prov.RunIntervalStep();
    rig.Settle();
    ExpectSumMatchesGlobal(rig.cl, 1, g1);
    EXPECT_FALSE(rig.cl.NodeAlive(1));
  }
  rig.RunTask([&]() -> sim::Task<void> {
    const Status s = co_await rig.cl.RestartNode(1);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }());
  prov.RunIntervalStep();
  rig.Settle();
  ExpectSumMatchesGlobal(rig.cl, 1, g1);
}

TEST(FaultInjectorTest, SameSeedMakesIdenticalDecisions) {
  ClusterRig rig(TestOptions(2, 1));
  FaultInjectorOptions fo;
  fo.seed = 42;
  fo.rpc_drop_rate = 0.3;
  fo.rpc_delay_rate = 0.4;
  FaultInjector a(rig.loop(), rig.cl, fo);
  FaultInjector b(rig.loop(), rig.cl, fo);
  for (int i = 0; i < 512; ++i) {
    const RpcFault fa = a.OnRpc(1, i % 2);
    const RpcFault fb = b.OnRpc(1, i % 2);
    EXPECT_EQ(fa.drop, fb.drop) << i;
    EXPECT_EQ(fa.delay, fb.delay) << i;
  }
  EXPECT_EQ(a.rpcs_dropped(), b.rpcs_dropped());
  EXPECT_EQ(a.rpcs_delayed(), b.rpcs_delayed());
  EXPECT_GT(a.rpcs_dropped(), 0u);
  EXPECT_GT(a.rpcs_delayed(), 0u);
}

TEST(FaultInjectorTest, DroppedRpcsSurfaceUnavailable) {
  ClusterOptions opt = TestOptions(2, 1);
  ClusterRig rig(opt);
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();
  FaultInjectorOptions fo;
  fo.rpc_drop_rate = 1.0;  // every routed call is eaten by the network
  FaultInjector inj(rig.loop(), rig.cl, fo);
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_EQ((co_await tenant.Put(Key(0), Val(0))).code(),
              StatusCode::kUnavailable);
    const Result<std::string> r = co_await tenant.Get(Key(0));
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }());
  EXPECT_GT(inj.rpcs_dropped(), 0u);
}

TEST(FaultInjectorTest, DelayedRpcsStillSucceed) {
  ClusterOptions opt = TestOptions(2, 1);
  ClusterRig rig(opt);
  TenantHandle tenant =
      rig.cl.AddTenant(1, GlobalReservation{100.0, 100.0}).value();
  FaultInjectorOptions fo;
  fo.rpc_delay_rate = 1.0;
  fo.rpc_delay_min = 1 * kMillisecond;
  fo.rpc_delay_max = 2 * kMillisecond;
  FaultInjector inj(rig.loop(), rig.cl, fo);
  rig.RunTask([&]() -> sim::Task<void> {
    const SimTime start = rig.loop().Now();
    EXPECT_TRUE((co_await tenant.Put(Key(0), Val(0))).ok());
    EXPECT_GE(rig.loop().Now() - start, fo.rpc_delay_min);
    const Result<std::string> r = co_await tenant.Get(Key(0));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value(), Val(0));
  }());
  EXPECT_GT(inj.rpcs_delayed(), 0u);
  EXPECT_EQ(inj.rpcs_dropped(), 0u);
}

}  // namespace
}  // namespace libra::cluster
