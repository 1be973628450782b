// The cluster's Pisces-style global provisioner.
//
// Once per interval it measures each tenant's per-node demand (deltas of the
// nodes' normalized-request counters, EWMA-smoothed), re-splits the tenant's
// global reservation across its hosting nodes in proportion to that demand
// (never below a minimum share, always summing exactly to the global rate),
// and pushes the new local reservations to the nodes — but only when the
// split moved beyond a hysteresis band, so allocations do not thrash on
// demand noise. It also watches each node's provisioning audit log: a node
// whose local reservations stay overbooked for several consecutive
// intervals sheds load via Cluster::MigrateShard (the paper's
// partition-migration escape hatch, §4.1).

#ifndef LIBRA_SRC_CLUSTER_GLOBAL_PROVISIONER_H_
#define LIBRA_SRC_CLUSTER_GLOBAL_PROVISIONER_H_

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/ewma.h"
#include "src/common/units.h"
#include "src/sim/event_loop.h"

namespace libra::cluster {

class GlobalProvisioner {
 public:
  GlobalProvisioner(sim::EventLoop& loop, Cluster& cluster,
                    GlobalProvisionerOptions options);
  ~GlobalProvisioner();

  GlobalProvisioner(const GlobalProvisioner&) = delete;
  GlobalProvisioner& operator=(const GlobalProvisioner&) = delete;

  // Periodic re-splitting. A started provisioner keeps one engine barrier
  // hook pending; drive the engine with RunUntil and Stop() before a
  // draining Run().
  void Start();
  void Stop();

  // One provisioning step immediately (also used by tests).
  void RunIntervalStep();

  // Splits applied (hysteresis-passing re-provisionings) and migrations
  // launched since construction.
  uint64_t splits_applied() const { return splits_applied_; }
  uint64_t migrations_started() const { return migrations_started_; }

 private:
  using TenantState = Cluster::TenantState;
  using HostRow = Cluster::HostRow;

  // Samples the tenant's normalized-request counters on one hosting node
  // into the row's smoothed demand.
  void UpdateDemand(TenantState& tenant, HostRow& host);
  void ResplitTenant(TenantState& tenant);
  void CheckOverbooking();

  sim::EventLoop& loop_;
  Cluster& cluster_;
  GlobalProvisionerOptions options_;
  // Consecutive overbooked intervals per node.
  std::vector<int> overbooked_streak_;
  // Audit records already inspected per node (total_appended watermark).
  std::vector<uint64_t> audit_seen_;
  bool running_ = false;
  SimTime last_step_time_ = -1;  // demand deltas need the elapsed interval
  uint64_t splits_applied_ = 0;
  uint64_t migrations_started_ = 0;
};

}  // namespace libra::cluster

#endif  // LIBRA_SRC_CLUSTER_GLOBAL_PROVISIONER_H_
