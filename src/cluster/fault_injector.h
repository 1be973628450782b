// Deterministic crash/fault injection for the cluster layer.
//
// The injector drives two fault families, both seeded and replayable:
//  - process crashes: ScheduleCrash/ScheduleRestart arm Cluster::CrashNode /
//    Cluster::RestartNode at absolute virtual times, so a run's failure
//    schedule is part of its seed;
//  - RPC faults: installed as the cluster's RpcFaultInjector, each routed
//    node call may be dropped (surfacing kUnavailable — the failover/retry
//    path) or delayed by a uniform draw from [delay_min, delay_max].
//
// Everything draws from one splitmix64 stream per injector, so two runs
// with the same seed and the same call sequence inject byte-identical
// faults — the property the CI determinism smoke test pins down.

#ifndef LIBRA_SRC_CLUSTER_FAULT_INJECTOR_H_
#define LIBRA_SRC_CLUSTER_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/cluster/cluster.h"
#include "src/sim/event_loop.h"

namespace libra::cluster {

struct FaultInjectorOptions {
  uint64_t seed = 0xFA17ED5EEDULL;
  // Per-RPC drop/delay probabilities; both 0 disables the RPC hook
  // entirely (the cluster's request path then never consults the RNG, so
  // a fault-free run is byte-identical to one without an injector).
  double rpc_drop_rate = 0.0;
  double rpc_delay_rate = 0.0;
  // An injected delay REPLACES the request leg's cross-node latency, so
  // rpc_delay_min must be at least the engine's conservative lookahead
  // (see CheckFaultDelayFloor).
  SimDuration rpc_delay_min = 100 * kMicrosecond;
  SimDuration rpc_delay_max = 2 * kMillisecond;
};

// Validates a fault configuration against the engine's conservative
// lookahead. An injected RPC delay replaces the request leg's cross-node
// latency, so every possible draw must stay at or above the lookahead —
// otherwise the delayed message could land inside an epoch that already
// ran and silently diverge from the single-threaded schedule. Returns Ok
// for configs that never inject delays.
Status CheckFaultDelayFloor(const FaultInjectorOptions& options,
                            SimDuration lookahead);

class FaultInjector : public RpcFaultInjector {
 public:
  // Installs itself as `cluster`'s RPC fault hook when either RPC rate is
  // nonzero. The injector must outlive the cluster's request traffic.
  FaultInjector(sim::EventLoop& loop, Cluster& cluster,
                FaultInjectorOptions options);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Arms a crash (resp. restart) of `node` at absolute virtual time `at`.
  // The restart runs detached: WAL replay and catch-up proceed in the
  // background while the workload keeps issuing requests.
  void ScheduleCrash(int node, SimTime at);
  void ScheduleRestart(int node, SimTime at);

  // RpcFaultInjector: one RNG draw per configured fault family per RPC.
  RpcFault OnRpc(iosched::TenantId tenant, int node) override;

  // Non-Ok when the configuration failed CheckFaultDelayFloor against the
  // cluster's engine at construction; the RPC hook is then left
  // uninstalled (crash and GC-stall faults still work).
  const Status& config_status() const { return config_status_; }

  uint64_t crashes_injected() const { return crashes_injected_; }
  uint64_t restarts_injected() const { return restarts_injected_; }
  uint64_t rpcs_dropped() const { return rpcs_dropped_; }
  uint64_t rpcs_delayed() const { return rpcs_delayed_; }

 private:
  double NextUniform();

  sim::EventLoop& loop_;
  Cluster& cluster_;
  FaultInjectorOptions options_;
  uint64_t rng_;
  Status config_status_;
  bool installed_ = false;
  uint64_t crashes_injected_ = 0;
  uint64_t restarts_injected_ = 0;
  uint64_t rpcs_dropped_ = 0;
  uint64_t rpcs_delayed_ = 0;
};

}  // namespace libra::cluster

#endif  // LIBRA_SRC_CLUSTER_FAULT_INJECTOR_H_
