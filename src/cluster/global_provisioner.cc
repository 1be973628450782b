#include "src/cluster/global_provisioner.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/iosched/resource_tracker.h"
#include "src/sim/task.h"

namespace libra::cluster {

namespace {

// Fire-and-forget wrapper for automatic migrations: the provisioner must not
// block its interval timer on a drain. Failures leave the shard where it was
// (MigrateShard is key-preserving on every error path), so the next
// overbooked streak simply retries.
sim::Task<void> RunMigration(Cluster* cluster, iosched::TenantId tenant,
                             int slot, int to_node) {
  (void)co_await cluster->MigrateShard(tenant, slot, to_node);
}

}  // namespace

GlobalProvisioner::GlobalProvisioner(sim::EventLoop& loop, Cluster& cluster,
                                     GlobalProvisionerOptions options)
    : loop_(loop), cluster_(cluster), options_(options) {
  assert(options_.interval > 0);
  overbooked_streak_.assign(static_cast<size_t>(cluster_.num_nodes()), 0);
  audit_seen_.assign(static_cast<size_t>(cluster_.num_nodes()), 0);
}

GlobalProvisioner::~GlobalProvisioner() { Stop(); }

void GlobalProvisioner::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  // The interval step reads every node's tracker and audit log, which is
  // only safe with all node loops quiesced — so the timer is a re-arming
  // barrier hook instead of a loop event. A stale hook after Stop() fires
  // once as a no-op (hooks cannot be cancelled).
  sim::MultiLoop* engine = &cluster_.engine();
  auto rearm = [this, engine](auto&& self) -> void {
    engine->ScheduleBarrierAt(engine->Now() + options_.interval,
                              [this, engine, self] {
                                if (!running_) {
                                  return;
                                }
                                RunIntervalStep();
                                self(self);
                              });
  };
  rearm(rearm);
}

void GlobalProvisioner::Stop() { running_ = false; }

void GlobalProvisioner::RunIntervalStep() {
  const SimTime now = loop_.Now();
  const bool first_step = last_step_time_ < 0;
  // One pass over the tenants in id order; each reads only its own rows.
  for (const iosched::TenantSlots::Entry& e : cluster_.index_.by_id()) {
    TenantState& tenant = cluster_.At(e.slot);
    for (HostRow& host : tenant.hosts) {
      if (host.slots > 0 && cluster_.NodeAlive(host.node)) {
        UpdateDemand(tenant, host);
      }
    }
    if (!first_step) {
      ResplitTenant(tenant);
    }
  }
  last_step_time_ = now;
  CheckOverbooking();
}

void GlobalProvisioner::UpdateDemand(TenantState& tenant, HostRow& host) {
  const auto& tracker = cluster_.nodes_[host.node]->tracker();
  if (host.node_slot == iosched::TenantSlot::kNone) {
    // The node registers the tenant when its install message lands; until
    // then its counters read zero.
    host.node_slot = tracker.slots().Find(tenant.id);
  }
  const bool created = !host.measured;
  if (created) {
    host.measured = true;
    for (Ewma& e : host.rate) {
      e = Ewma(options_.demand_alpha);
    }
  }
  const double elapsed =
      last_step_time_ < 0 ? 0.0 : ToSeconds(loop_.Now() - last_step_time_);
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    const double total = tracker.NormalizedRequestsTotal(
        host.node_slot, static_cast<iosched::AppRequest>(a));
    if (!created && elapsed > 0.0) {
      host.rate[a].Observe((total - host.last_total[a]) / elapsed);
    }
    host.last_total[a] = total;
  }
}

double GlobalProvisioner::DemandShare(iosched::TenantId tenant,
                                      int node) const {
  const TenantState* state = cluster_.Find(tenant);
  if (state == nullptr) {
    return 0.0;
  }
  double mine = -1.0;
  double total = 0.0;
  for (const HostRow& host : state->hosts) {
    if (!host.measured) {
      continue;
    }
    if (host.node == node) {
      mine = host.TotalRate();
    }
    total += host.TotalRate();
  }
  if (mine < 0.0) {
    return 0.0;
  }
  return total > 0.0 ? mine / total : 0.0;
}

void GlobalProvisioner::ResplitTenant(TenantState& tenant) {
  const GlobalReservation global = tenant.global;

  // Hosting set: alive nodes only — a crashed node earns no share, and its
  // mass must land on the survivors so the split still sums to the global.
  std::vector<const HostRow*> hosting;
  int total_slots = 0;
  for (const HostRow& host : tenant.hosts) {
    if (host.slots > 0 && cluster_.NodeAlive(host.node)) {
      hosting.push_back(&host);
      total_slots += host.slots;
    }
  }
  if (hosting.empty()) {
    return;
  }

  // Demand-proportional shares per request class, falling back to
  // slot-proportional while a class is entirely unobserved, floored at
  // min_share and renormalized so every hosting node can ramp back up.
  const size_t k = hosting.size();
  std::vector<std::vector<double>> class_demand(
      iosched::kNumAppRequests, std::vector<double>(k, 0.0));
  std::vector<double> class_total(iosched::kNumAppRequests, 0.0);
  for (size_t i = 0; i < k; ++i) {
    if (!hosting[i]->measured) {
      continue;
    }
    for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests;
         ++a) {
      class_demand[a][i] = hosting[i]->rate[a].Value();
      class_total[a] += class_demand[a][i];
    }
  }
  auto shares = [&](const std::vector<double>& demand, double total) {
    std::vector<double> s(k);
    double sum = 0.0;
    for (size_t i = 0; i < k; ++i) {
      s[i] = total > 1e-9
                 ? demand[i] / total
                 : static_cast<double>(hosting[i]->slots) / total_slots;
      s[i] = std::max(s[i], options_.min_share);
      sum += s[i];
    }
    for (double& v : s) {
      v /= sum;
    }
    return s;
  };
  std::vector<std::vector<double>> share(iosched::kNumAppRequests);
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    share[a] = shares(class_demand[a], class_total[a]);
  }

  // All but the last hosting node take their proportional cut; the last
  // takes the remainder so the split sums exactly to the global rate.
  std::map<int, iosched::Reservation> split;
  double used[iosched::kNumAppRequests] = {};
  for (size_t i = 0; i + 1 < k; ++i) {
    iosched::Reservation r;
    for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests;
         ++a) {
      r.rps[a] = global.rps[a] * share[a][i];
      used[a] += r.rps[a];
    }
    split[hosting[i]->node] = r;
  }
  iosched::Reservation last;
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    last.rps[a] = std::max(0.0, global.rps[a] - used[a]);
  }
  split[hosting[k - 1]->node] = last;

  // Hysteresis: apply only when some node's share moved by more than the
  // band, as a fraction of the tenant's total global rate. A change in the
  // hosting set (migration) always passes.
  const auto& current = tenant.split;
  double max_change = 0.0;
  bool hosting_changed = current.size() != split.size();
  for (const auto& [node, r] : split) {
    const auto cit = current.find(node);
    if (cit == current.end()) {
      hosting_changed = true;
      break;
    }
    double change = 0.0;
    for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests;
         ++a) {
      change += std::abs(r.rps[a] - cit->second.rps[a]);
    }
    max_change = std::max(max_change, change);
  }
  const double denom = std::max(1.0, global.Total());
  if (!hosting_changed && !current.empty() &&
      max_change / denom < options_.hysteresis) {
    return;
  }

  cluster_.ApplySplit(tenant, split);
  ++splits_applied_;

  obs::RebalanceRecord rec;
  rec.kind = obs::RebalanceRecord::Kind::kSplit;
  rec.time_ns = loop_.Now();
  rec.tenant = tenant.id;
  rec.nodes = static_cast<int>(k);
  cluster_.rebalance_log_.Append(rec);
}

void GlobalProvisioner::CheckOverbooking() {
  // Advance per-node streaks from the nodes' provisioning audit logs (one
  // record per policy interval; the watermark skips already-seen records).
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    if (!cluster_.NodeAlive(n)) {
      overbooked_streak_[n] = 0;  // a dead node cannot be overbooked
      continue;
    }
    const auto& log = cluster_.nodes_[n]->policy().audit_log();
    const uint64_t total = log.total_appended();
    if (total > audit_seen_[n]) {
      audit_seen_[n] = total;
      overbooked_streak_[n] =
          log.back().overbooked ? overbooked_streak_[n] + 1 : 0;
    }
  }
  if (options_.overbook_intervals_before_migration <= 0 ||
      cluster_.active_migrations_ > 0) {
    return;  // disabled, or a migration is already draining
  }

  // Most persistently overbooked node past the threshold (lowest index on
  // ties, for determinism).
  int src = -1;
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    if (overbooked_streak_[n] >= options_.overbook_intervals_before_migration &&
        (src < 0 || overbooked_streak_[n] > overbooked_streak_[src])) {
      src = n;
    }
  }
  if (src < 0) {
    return;
  }

  // Victim: the tenant with the highest smoothed demand on the overbooked
  // node — moving its hottest shard sheds the most load per migration.
  const TenantState* victim = nullptr;
  double victim_demand = -1.0;
  for (const iosched::TenantSlots::Entry& e : cluster_.index_.by_id()) {
    const TenantState& tenant = cluster_.At(e.slot);
    const HostRow* host = nullptr;
    for (const HostRow& h : tenant.hosts) {
      if (h.node == src) {
        host = &h;
        break;
      }
    }
    if (host == nullptr || host->slots == 0) {
      continue;
    }
    const double d = host->measured ? host->TotalRate() : 0.0;
    if (d > victim_demand) {
      victim_demand = d;
      victim = &tenant;
    }
  }
  if (victim == nullptr) {
    overbooked_streak_[src] = 0;
    return;
  }
  int slot = -1;
  for (int s = 0; s < static_cast<int>(victim->shards.size()); ++s) {
    if (victim->shards[s].replicas[0] == src) {
      slot = s;
      break;
    }
  }
  assert(slot >= 0);

  // Target: the least-provisioned node that is not itself on an overbooked
  // streak (any other node as a last resort).
  int dst = -1;
  double dst_load = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 2 && dst < 0; ++pass) {
    for (int n = 0; n < cluster_.num_nodes(); ++n) {
      if (n == src || !cluster_.NodeAlive(n) ||
          (pass == 0 && overbooked_streak_[n] > 0)) {
        continue;
      }
      double load = 0.0;
      for (const iosched::TenantSlots::Entry& e : cluster_.index_.by_id()) {
        const TenantState& state = cluster_.At(e.slot);
        if (const auto sit = state.split.find(n); sit != state.split.end()) {
          load += cluster_.PricedVops(sit->second);
        }
      }
      if (load < dst_load) {
        dst_load = load;
        dst = n;
      }
    }
  }
  if (dst < 0) {
    return;
  }

  ++migrations_started_;
  overbooked_streak_[src] = 0;  // give the migration time to take effect
  sim::Detach(RunMigration(&cluster_, victim->id, slot, dst));
}

}  // namespace libra::cluster
