// Quickstart: bring up a provisioned multi-node cluster, admit a tenant
// with a global app-request reservation, and serve GET/PUT traffic through
// a TenantHandle.
//
//   $ ./examples/quickstart
//
// Walks through the full stack: device calibration -> cost model -> N
// storage nodes behind the Cluster API -> global provisioner splitting the
// tenant's reservation across nodes -> tenant requests on the coroutine
// runtime. (For the single-node surface underneath, see
// examples/dynamic_reservations.cpp.)

#include <cstdio>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/multi_loop.h"
#include "src/sim/task.h"
#include "src/ssd/calibration.h"

using namespace libra;

int main() {
  // 1. Calibrate the device (a deployment does this once per SSD model;
  //    see paper §4.3). The table feeds every node's VOP cost model.
  const ssd::DeviceProfile profile = ssd::Intel320Profile();
  std::printf("calibrating %s...\n", profile.name.c_str());
  ssd::CalibrationOptions copt;
  copt.measure = 500 * kMillisecond;
  const ssd::CalibrationTable table = ssd::Calibrate(profile, copt);
  std::printf("  max IOP throughput: %.0f op/s (the VOP normalizer)\n",
              table.max_iops());

  // 2. Build the cluster: four identical storage nodes (LSM partitions over
  //    Libra over the SSD), sharded by consistent hashing. Each node runs on
  //    its own loop of a MultiLoop engine; loop 0 runs the clients, and
  //    every cross-node RPC is a message with options.rpc_latency (50us).
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.node_options.device_profile = profile;
  options.node_options.calibration = table;
  // Request-path batching (off by default, paper-faithful): WAL group
  // commit merges concurrent PUT syncs into one fairly-split device write,
  // duplicate in-flight GETs share one lookup, MultiGet groups same-shard
  // keys, and index blocks live in a bounded LRU table cache.
  options.batch_multiget = true;
  options.node_options.enable_read_coalescing = true;
  options.node_options.lsm_options.wal_group_commit = true;
  options.node_options.lsm_options.table_cache_bytes = 256 * kKiB;
  sim::MultiLoop engine(options.num_nodes + 1,
                        {/*threads=*/1, options.rpc_latency});
  sim::EventLoop& loop = engine.loop(0);
  cluster::Cluster cl(engine, options);

  // 3. Admit a tenant with a *global* reservation: 2000 normalized (1KB)
  //    GET/s and 1000 normalized PUT/s, cluster-wide. Admission control
  //    checks every hosting node's capacity up front; the global
  //    provisioner then keeps splitting the reservation across nodes in
  //    proportion to where the tenant's demand actually lands.
  Result<cluster::TenantHandle> admitted =
      cl.AddTenant(42, cluster::GlobalReservation{2000.0, 1000.0});
  if (!admitted.ok()) {
    std::printf("AddTenant failed: %s\n",
                admitted.status().ToString().c_str());
    return 1;
  }
  cluster::TenantHandle tenant = admitted.value();
  cl.Start();  // node policies + global provisioner, 1s intervals

  // 4. Issue requests through the handle. Application code is written as
  //    coroutines; each co_await suspends until the owning node's scheduler
  //    serves the IO. Keys route to nodes by shard — the caller never
  //    addresses a node.
  auto client = [&]() -> sim::Task<void> {
    Status s = co_await tenant.Put("user:1001", "alice");
    std::printf("PUT user:1001 -> %s (t=%.3fs)\n", s.ToString().c_str(),
                ToSeconds(loop.Now()));
    s = co_await tenant.Put("user:1002", "bob");
    std::printf("PUT user:1002 -> %s\n", s.ToString().c_str());

    Result<std::string> r = co_await tenant.Get("user:1001");
    std::printf("GET user:1001 -> %s value=%s\n",
                r.status().ToString().c_str(), r.value().c_str());

    // MultiGet fans the lookups out concurrently (possibly to different
    // nodes) and returns results in key order. (Built as a named vector:
    // GCC 12 miscompiles braced initializer lists inside coroutines.)
    std::vector<std::string> batch;
    batch.push_back("user:1001");
    batch.push_back("user:1002");
    const auto many = co_await tenant.MultiGet(batch);
    std::printf("MULTIGET -> [%s, %s]\n", many[0].value().c_str(),
                many[1].value().c_str());

    s = co_await tenant.Delete("user:1002");
    std::printf("DEL user:1002 -> %s\n", s.ToString().c_str());
    r = co_await tenant.Get("user:1002");
    std::printf("GET user:1002 -> %s (expected not_found)\n",
                r.status().ToString().c_str());
  };
  sim::Detach(client());
  // Started policies keep timers pending, so bound the run, stop, drain.
  engine.RunUntil(loop.Now() + 5 * kSecond);
  cl.Stop();
  engine.Run();

  // 5. Inspect where the requests landed and what they cost.
  std::printf("shard homes:");
  for (int slot = 0; slot < cl.shard_map().shards_per_tenant(); ++slot) {
    std::printf(" %d", cl.HomeOf(42, slot));
  }
  std::printf("\n");
  double vops = 0.0;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    vops += cl.node(n).tracker().Stats(42).vops;
  }
  std::printf("tenant 42 consumed %.2f VOPs across %d nodes\n", vops,
              cl.num_nodes());
  return 0;
}
