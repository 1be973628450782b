#include "bench/kv_bench_common.h"

namespace libra::bench {

kv::NodeOptions PrototypeNodeOptions() {
  kv::NodeOptions opt;
  opt.device_profile = ssd::Intel320Profile();
  opt.calibration = TableFor(opt.device_profile);
  opt.cost_model = "exact";
  opt.enable_cache = false;
  opt.prefill_bytes = 0;  // the LSM preload populates the FTL
  return opt;
}

void ApplyTraceFlags(const BenchArgs& args, kv::NodeOptions& options,
                     size_t span_capacity, uint64_t id_seed) {
  if (!TraceRequested(args)) {
    return;
  }
  options.scheduler_options.span_capacity = span_capacity;
  options.scheduler_options.span_sample_every = args.trace_sample;
  options.scheduler_options.span_id_seed = id_seed;
}

void RunPreloads(sim::EventLoop& loop,
                 std::vector<workload::KvTenantWorkload*> workloads) {
  sim::TaskGroup group(loop);
  for (auto* wl : workloads) {
    group.Spawn(wl->Preload());
  }
  loop.Run();
}

SimRig MakeSimRig(const BenchArgs& args, int nodes) {
  sim::MultiLoopOptions mopt;
  mopt.threads = args.sim_threads;
  mopt.lookahead = args.rpc_latency;
  return SimRig{std::make_unique<sim::MultiLoop>(nodes + 1, mopt)};
}

std::unique_ptr<cluster::Cluster> MakeCluster(SimRig& rig,
                                              cluster::ClusterOptions options) {
  options.rpc_latency = rig.multi->lookahead();
  return std::make_unique<cluster::Cluster>(*rig.multi, options);
}

void RunPreloads(SimRig& rig,
                 std::vector<workload::KvTenantWorkload*> workloads) {
  sim::TaskGroup group(rig.client());
  for (auto* wl : workloads) {
    group.Spawn(wl->Preload());
  }
  rig.Run();
}

}  // namespace libra::bench
