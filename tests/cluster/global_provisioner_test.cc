#include "src/cluster/global_provisioner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sim/sync.h"
#include "tests/cluster/cluster_rig.h"

namespace libra::cluster {
namespace {

using iosched::Reservation;
using iosched::TenantId;

double SplitGetSum(Cluster& cl, TenantId tenant) {
  double sum = 0.0;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    sum += cl.node(n).policy().GetReservation(tenant).get_rps();
  }
  return sum;
}

// Keys of `tenant` homed on `node` under the cluster's shard map.
std::vector<std::string> KeysOn(const Cluster& cl, TenantId tenant, int node,
                                int count) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < static_cast<size_t>(count) && i < 100000;
       ++i) {
    std::string key = "hot-" + std::to_string(i);
    const ShardMap& map = cl.shard_map();
    if (map.HomeOf(tenant, map.SlotOfKey(key)) == node) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

// Spawned coroutines that suspend must be free functions with by-value
// parameters (copied into the frame); a capturing lambda's closure is a
// temporary that dies before the loop resumes the coroutine.
sim::Task<void> PutAll(TenantHandle tenant, std::vector<std::string> keys,
                       std::string value) {
  for (const std::string& k : keys) {
    co_await tenant.Put(k, value);
  }
}

sim::Task<void> HammerKeys(sim::EventLoop* loop, TenantHandle tenant,
                           std::vector<std::string> keys, SimTime end) {
  size_t i = 0;
  while (loop->Now() < end) {
    co_await tenant.Get(keys[i++ % keys.size()]);
    // Pace the reads so each interval sees the same demand.
    co_await sim::SleepFor(*loop, 100 * kMicrosecond);
  }
}

TEST(GlobalProvisionerTest, ResplitSumsExactlyToGlobalUnderSkew) {
  ClusterRig rig;
  Cluster& cl = rig.cl;
  sim::EventLoop& loop = rig.loop();
  const GlobalReservation global{3000.0, 1000.0};
  TenantHandle tenant = cl.AddTenant(1, global).value();

  // Concentrate all demand on one node, then provision repeatedly: the
  // split must follow the demand and always re-sum exactly to the global
  // reservation.
  const int hot_node = cl.shard_map().HomeOf(1, 0);
  const std::vector<std::string> keys = KeysOn(cl, 1, hot_node, 8);
  ASSERT_FALSE(keys.empty());
  {
    sim::TaskGroup group(loop);
    group.Spawn(PutAll(tenant, keys, std::string(1024, 'x')));
    rig.Settle();
  }

  GlobalProvisioner& prov = cl.provisioner();
  for (int round = 0; round < 5; ++round) {
    {
      sim::TaskGroup group(loop);
      group.Spawn(HammerKeys(&loop, tenant, keys,
                             loop.Now() + 500 * kMillisecond));
      rig.Settle();
    }
    prov.RunIntervalStep();
    rig.Settle();
    EXPECT_DOUBLE_EQ(SplitGetSum(cl, 1), global.get_rps()) << round;
  }
  EXPECT_GT(prov.splits_applied(), 0u);

  // The hot node ended up with the dominant share of the reservation.
  const double hot_share =
      cl.node(hot_node).policy().GetReservation(1).get_rps() / global.get_rps();
  EXPECT_GT(hot_share, 0.5);
}

TEST(GlobalProvisionerTest, HysteresisStopsSteadyStateThrash) {
  ClusterRig rig;
  Cluster& cl = rig.cl;
  sim::EventLoop& loop = rig.loop();
  TenantHandle tenant = cl.AddTenant(1, GlobalReservation{1000.0, 0.0}).value();
  const int hot_node = cl.shard_map().HomeOf(1, 0);
  const std::vector<std::string> keys = KeysOn(cl, 1, hot_node, 4);
  ASSERT_FALSE(keys.empty());
  {
    sim::TaskGroup group(loop);
    group.Spawn(PutAll(tenant, keys, "v"));
    rig.Settle();
  }

  GlobalProvisioner& prov = cl.provisioner();
  // Steady identical demand every interval: after the split converges, the
  // hysteresis band must hold it still.
  for (int round = 0; round < 8; ++round) {
    sim::TaskGroup group(loop);
    group.Spawn(
        HammerKeys(&loop, tenant, keys, loop.Now() + 500 * kMillisecond));
    rig.Settle();
    prov.RunIntervalStep();
  }
  const uint64_t converged = prov.splits_applied();
  for (int round = 0; round < 4; ++round) {
    sim::TaskGroup group(loop);
    group.Spawn(
        HammerKeys(&loop, tenant, keys, loop.Now() + 500 * kMillisecond));
    rig.Settle();
    prov.RunIntervalStep();
  }
  EXPECT_EQ(prov.splits_applied(), converged);
}

TEST(GlobalProvisionerTest, NoDemandKeepsSlotProportionalSplit) {
  ClusterRig rig;
  Cluster& cl = rig.cl;
  const GlobalReservation global{800.0, 400.0};
  ASSERT_TRUE(cl.AddTenant(1, global).ok());
  rig.Settle();
  const auto initial = [&] {
    std::vector<Reservation> r;
    for (int n = 0; n < cl.num_nodes(); ++n) {
      r.push_back(cl.node(n).policy().GetReservation(1));
    }
    return r;
  };
  const std::vector<Reservation> before = initial();
  GlobalProvisioner& prov = cl.provisioner();
  prov.RunIntervalStep();
  rig.ml.RunUntil(rig.loop().Now() + kSecond);
  prov.RunIntervalStep();
  rig.Settle();
  // Nothing observed: the slot-proportional split equals the admission-time
  // even split, so hysteresis holds it and nothing thrashes.
  EXPECT_EQ(prov.splits_applied(), 0u);
  const std::vector<Reservation> after = initial();
  for (int n = 0; n < cl.num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(after[n].get_rps(), before[n].get_rps()) << n;
    EXPECT_DOUBLE_EQ(after[n].put_rps(), before[n].put_rps()) << n;
  }
}

TEST(GlobalProvisionerTest, PersistentOverbookingTriggersMigration) {
  ClusterOptions opt = TestOptions(2);
  opt.provisioner.overbook_intervals_before_migration = 3;
  ClusterRig rig(opt);
  Cluster& cl = rig.cl;
  ASSERT_TRUE(cl.AddTenant(1, GlobalReservation{100.0, 100.0}).ok());
  rig.Settle();

  // Overbook node 0 behind the cluster's back: its policy now records
  // overbooked == true every interval.
  const int src = 0;
  ASSERT_TRUE(cl.node(src).HasTenant(1));
  ASSERT_TRUE(cl.node(src).UpdateReservation(1, {1.0e6, 1.0e6}).ok());
  cl.node(0).Start();
  cl.node(1).Start();

  GlobalProvisioner& prov = cl.provisioner();
  std::vector<int> homes_before;
  for (int s = 0; s < cl.shard_map().shards_per_tenant(); ++s) {
    homes_before.push_back(cl.HomeOf(1, s));
  }
  for (int i = 0; i < 5 && prov.migrations_started() == 0; ++i) {
    rig.ml.RunUntil(rig.loop().Now() + 1100 * kMillisecond);
    prov.RunIntervalStep();
  }
  EXPECT_EQ(prov.migrations_started(), 1u);

  // Let the detached migration drain and flip the map.
  rig.ml.RunUntil(rig.loop().Now() + kSecond);
  int rehomed = 0;
  for (int s = 0; s < cl.shard_map().shards_per_tenant(); ++s) {
    rehomed += cl.HomeOf(1, s) != homes_before[s] ? 1 : 0;
  }
  EXPECT_EQ(rehomed, 1);
  bool saw_migration = false;
  for (const auto& rec : cl.rebalance_log().records()) {
    if (rec.kind == obs::RebalanceRecord::Kind::kMigration) {
      saw_migration = true;
      EXPECT_EQ(rec.tenant, 1u);
      EXPECT_EQ(rec.from_node, src);
      EXPECT_EQ(rec.to_node, 1);
    }
  }
  EXPECT_TRUE(saw_migration);

  cl.node(0).Stop();
  cl.node(1).Stop();
  rig.Settle();
}

TEST(GlobalProvisionerTest, DisabledMigrationNeverFires) {
  ClusterOptions opt = TestOptions(2);
  opt.provisioner.overbook_intervals_before_migration = 0;  // disabled
  ClusterRig rig(opt);
  Cluster& cl = rig.cl;
  ASSERT_TRUE(cl.AddTenant(1, GlobalReservation{100.0, 100.0}).ok());
  rig.Settle();
  ASSERT_TRUE(cl.node(0).UpdateReservation(1, {1.0e6, 1.0e6}).ok());
  cl.node(0).Start();
  cl.node(1).Start();
  GlobalProvisioner& prov = cl.provisioner();
  for (int i = 0; i < 5; ++i) {
    rig.ml.RunUntil(rig.loop().Now() + 1100 * kMillisecond);
    prov.RunIntervalStep();
  }
  EXPECT_EQ(prov.migrations_started(), 0u);
  cl.node(0).Stop();
  cl.node(1).Stop();
  rig.Settle();
}

}  // namespace
}  // namespace libra::cluster
