// Shared setup for the prototype (KV-node) benches: Figs. 2, 10, 11, 12.

#ifndef LIBRA_BENCH_KV_BENCH_COMMON_H_
#define LIBRA_BENCH_KV_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/cluster.h"
#include "src/kv/storage_node.h"
#include "src/sim/event_loop.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"
#include "src/workload/workload.h"

namespace libra::bench {

// VOP conservation bound for the demos' attribution check: a tenant's
// attribution cells re-order the tracker's additions, so they sum to its
// VOP total up to rounding, never further than this relative distance.
inline constexpr double kConservationRelTol = 1e-12;

// Node configured like the paper's prototype: Intel 320, exact cost model,
// no object cache, 4MB write buffers.
kv::NodeOptions PrototypeNodeOptions();

// Applies --trace-json/--trace-sample to a node's scheduler options: span
// collection on (capacity `span_capacity`) when tracing was requested,
// sampling 1 of every args.trace_sample root requests. Leave id seeding to
// Cluster for multi-node benches; single-node benches can pass a nonzero
// `id_seed` to namespace ids per node themselves.
void ApplyTraceFlags(const BenchArgs& args, kv::NodeOptions& options,
                     size_t span_capacity = 1 << 16, uint64_t id_seed = 0);

// Runs `preloads` to completion on `loop` (sequentially).
void RunPreloads(sim::EventLoop& loop,
                 std::vector<workload::KvTenantWorkload*> workloads);

// --- simulation rig ---
//
// The multi-node benches run on sim::MultiLoop: loop 0 for clients and
// coordination, one loop per storage node, and every cross-node RPC a
// message with --rpc-latency-us latency (default 50us), which doubles as
// the engine's conservative lookahead. Output is byte-identical for every
// --sim-threads value at a fixed latency; only wall-clock time changes.
struct SimRig {
  std::unique_ptr<sim::MultiLoop> multi;

  // The loop clients (workloads, fault schedules, verifiers) run on.
  sim::EventLoop& client() { return multi->loop(0); }
  uint64_t RunUntil(SimTime deadline) { return multi->RunUntil(deadline); }
  uint64_t Run() { return multi->Run(); }
  // Runs `fn` at virtual time `when` with every loop quiesced (a barrier
  // hook). Required for mid-run snapshots that read node-side state
  // (trackers, policies).
  void AtTime(SimTime when, std::function<void()> fn) {
    multi->ScheduleBarrierAt(when, std::move(fn));
  }
};

// Builds the engine the flags ask for; `nodes` is the storage-node count
// (the engine gets nodes + 1 loops).
SimRig MakeSimRig(const BenchArgs& args, int nodes);

// Constructs the cluster on the rig's engine, with the engine's lookahead
// as ClusterOptions::rpc_latency.
std::unique_ptr<cluster::Cluster> MakeCluster(SimRig& rig,
                                              cluster::ClusterOptions options);

// RunPreloads on the rig's client loop.
void RunPreloads(SimRig& rig,
                 std::vector<workload::KvTenantWorkload*> workloads);

}  // namespace libra::bench

#endif  // LIBRA_BENCH_KV_BENCH_COMMON_H_
