#include "src/cluster/fault_injector.h"

#include <cstdio>
#include <string>

#include "src/sim/task.h"

namespace libra::cluster {

namespace {

sim::Task<void> RunRestart(Cluster* cluster, int node) {
  (void)co_await cluster->RestartNode(node);
}

}  // namespace

Status CheckFaultDelayFloor(const FaultInjectorOptions& options,
                            SimDuration lookahead) {
  if (options.rpc_delay_rate <= 0.0) {
    return Status::Ok();
  }
  if (options.rpc_delay_min < lookahead) {
    return Status::InvalidArgument(
        "rpc_delay_min " + std::to_string(options.rpc_delay_min) +
        "ns is below the engine's conservative lookahead " +
        std::to_string(lookahead) +
        "ns: an injected delay replaces the request leg's cross-node "
        "latency, so a shorter draw could deliver into an epoch that "
        "already ran and diverge from the single-threaded schedule (raise "
        "rpc_delay_min or lower the engine lookahead)");
  }
  return Status::Ok();
}

FaultInjector::FaultInjector(sim::EventLoop& loop, Cluster& cluster,
                             FaultInjectorOptions options)
    : loop_(loop),
      cluster_(cluster),
      options_(options),
      rng_(options.seed) {
  config_status_ = CheckFaultDelayFloor(options_, cluster_.lookahead());
  if (!config_status_.ok()) {
    std::fprintf(stderr, "FaultInjector: %s\n",
                 config_status_.message().c_str());
    return;  // RPC hook stays uninstalled; crash/GC faults still work
  }
  if (options_.rpc_drop_rate > 0.0 || options_.rpc_delay_rate > 0.0) {
    cluster_.SetRpcFaultInjector(this);
    installed_ = true;
  }
}

FaultInjector::~FaultInjector() {
  if (installed_) {
    cluster_.SetRpcFaultInjector(nullptr);
  }
}

double FaultInjector::NextUniform() {
  // splitmix64 step; top 53 bits give a uniform double in [0, 1).
  rng_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = rng_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

void FaultInjector::ScheduleCrash(int node, SimTime at) {
  loop_.ScheduleAt(at, [this, node] {
    if (cluster_.CrashNode(node).ok()) {
      ++crashes_injected_;
    }
  });
}

void FaultInjector::ScheduleRestart(int node, SimTime at) {
  loop_.ScheduleAt(at, [this, node] {
    if (cluster_.NodeAlive(node)) {
      return;  // crash never fired (or already restarted); nothing to do
    }
    ++restarts_injected_;
    sim::Detach(RunRestart(&cluster_, node));
  });
}

RpcFault FaultInjector::OnRpc(iosched::TenantId /*tenant*/, int /*node*/) {
  RpcFault f;
  if (options_.rpc_delay_rate > 0.0 &&
      NextUniform() < options_.rpc_delay_rate) {
    const double span =
        static_cast<double>(options_.rpc_delay_max - options_.rpc_delay_min);
    f.delay = options_.rpc_delay_min +
              static_cast<SimDuration>(NextUniform() * span);
    ++rpcs_delayed_;
  }
  if (options_.rpc_drop_rate > 0.0 && NextUniform() < options_.rpc_drop_rate) {
    f.drop = true;
    ++rpcs_dropped_;
  }
  return f;
}

}  // namespace libra::cluster
