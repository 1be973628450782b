// Shared fixture for the cluster tests: a Cluster on a MultiLoop engine
// (loop 0 is the coordinator, loop i + 1 runs node i) with small LSM write
// buffers so flushes and compactions happen at test scale.
//
// Cross-node effects are messages, so node-side state (policies,
// partitions, trackers) reflects a control-plane step such as AddTenant or
// CrashNode only after the engine has delivered it: call Settle() before
// reading it, and read it only while the engine is idle.

#ifndef LIBRA_TESTS_CLUSTER_CLUSTER_RIG_H_
#define LIBRA_TESTS_CLUSTER_CLUSTER_RIG_H_

#include <string>
#include <utility>

#include "src/cluster/cluster.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"

namespace libra::cluster {

inline constexpr SimDuration kRpcLatency = 50 * kMicrosecond;

inline ssd::CalibrationTable TestTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

inline ClusterOptions TestOptions(int nodes = 4, int rf = 1) {
  ClusterOptions opt;
  opt.num_nodes = nodes;
  opt.replication_factor = rf;
  opt.node_options.calibration = TestTable();
  opt.node_options.lsm_options.write_buffer_bytes = 256 * 1024;
  opt.node_options.lsm_options.max_bytes_level1 = 1 * kMiB;
  opt.node_options.prefill_bytes = 64 * kMiB;
  opt.rpc_latency = kRpcLatency;
  return opt;
}

struct ClusterRig {
  sim::MultiLoop ml;
  Cluster cl;

  explicit ClusterRig(ClusterOptions opt, int threads = 1)
      : ml(opt.num_nodes + 1, {threads, kRpcLatency}), cl(ml, std::move(opt)) {}
  explicit ClusterRig(int nodes = 4) : ClusterRig(TestOptions(nodes)) {}

  // The coordinator loop: clients, routing, fault schedules.
  sim::EventLoop& loop() { return ml.loop(0); }

  void RunTask(sim::Task<void> t) {
    sim::Detach(std::move(t));
    ml.Run();
  }

  // Delivers every pending cross-node message.
  void Settle() { ml.Run(); }
};

// Reads `key` straight from one node's partition, bypassing routing and
// failover. Runs the engine, so call it with no client task in flight.
inline Result<std::string> ReadOnNode(ClusterRig& rig, int node,
                                      iosched::TenantId tenant,
                                      const std::string& key) {
  Result<std::string> out(Status::Internal("read did not complete"));
  sim::Detach([](kv::StorageNode* n, iosched::TenantId t, std::string k,
                 Result<std::string>* out) -> sim::Task<void> {
    *out = co_await n->Get(t, k);
  }(&rig.cl.node(node), tenant, key, &out));
  rig.ml.Run();
  return out;
}

}  // namespace libra::cluster

#endif  // LIBRA_TESTS_CLUSTER_CLUSTER_RIG_H_
