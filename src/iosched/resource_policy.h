// The Libra resource policy (paper §2.2, §4.1).
//
// Local app-request reservations (normalized 1KB GET/s and PUT/s, set by
// higher-level system-wide policies such as Pisces) are converted once per
// interval into VOP allocations:
//
//   r_t = v_t^GET * profile_t^GET + v_t^PUT * profile_t^PUT
//
// using the tracker's amplified per-request resource profiles. Allocations
// are capped by the capacity model's provisionable floor: when overbooked,
// every tenant is scaled down proportionally and higher-level policies are
// notified (the paper's partition-migration signal). Underbooked capacity
// needs no explicit handling — the work-conserving scheduler shares it
// proportionally.

#ifndef LIBRA_SRC_IOSCHED_RESOURCE_POLICY_H_
#define LIBRA_SRC_IOSCHED_RESOURCE_POLICY_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/iosched/capacity.h"
#include "src/iosched/io_tag.h"
#include "src/iosched/scheduler.h"
#include "src/obs/audit.h"
#include "src/obs/conformance.h"
#include "src/obs/sla.h"
#include "src/sim/event_loop.h"

namespace libra::iosched {

// Local per-tenant reservation in normalized (1KB) requests per second,
// one rate per application request class. The storage is a per-class array
// indexed by AppRequest — pricing, admission, and demand-splitting loop
// over it, so new classes need no bespoke plumbing — and the named
// accessors read and write one class's slot.
struct Reservation {
  double rps[kNumAppRequests];  // rps[kNone] is always 0, never priced

  constexpr Reservation() : rps{} {}
  constexpr Reservation(double get, double put, double scan = 0.0)
      : rps{0.0, get, put, scan} {}

  constexpr double RateOf(AppRequest app) const {
    return rps[static_cast<int>(app)];
  }
  constexpr double& RateOf(AppRequest app) {
    return rps[static_cast<int>(app)];
  }
  constexpr double get_rps() const { return RateOf(AppRequest::kGet); }
  constexpr double& get_rps() { return RateOf(AppRequest::kGet); }
  constexpr double put_rps() const { return RateOf(AppRequest::kPut); }
  constexpr double& put_rps() { return RateOf(AppRequest::kPut); }
  constexpr double scan_rps() const { return RateOf(AppRequest::kScan); }
  constexpr double& scan_rps() { return RateOf(AppRequest::kScan); }
  constexpr double Total() const {
    double sum = 0.0;
    for (int a = kFirstAppRequest; a < kNumAppRequests; ++a) {
      sum += rps[a];
    }
    return sum;
  }
};

// How the policy prices a normalized request (the Fig. 11 ablation).
enum class ProfileMode {
  // Full app-request resource profiles: direct + FLUSH + COMPACT (Libra).
  kFull,
  // "No profile": price only the application-level object IO at its
  // observed size; secondary IO is invisible. Under-provisions amplified
  // workloads, which the paper shows violates reservations once the node
  // can no longer cover the gap through work conservation.
  kObjectSizeOnly,
};

struct PolicyOptions {
  SimDuration interval = 1 * kSecond;  // paper: once per second
  ProfileMode mode = ProfileMode::kFull;
  // Bounded provisioning audit log (newest records kept); 0 disables.
  size_t audit_capacity = 512;
  // SLA violation slack: an interval violates when achieved VOP/s falls
  // below (1 - sla_tolerance) x the priced reservation while the tenant
  // had pending demand (see obs::SlaMonitor).
  double sla_tolerance = 0.05;
  // Demand gate for those violations: the tenant must have had queued or
  // in-flight work for at least this fraction of the interval. The
  // guarantee is conditional on offered load — a tenant whose own load
  // dipped (workers blocked elsewhere, e.g. on a recovering shard) did not
  // have its reservation violated by this node.
  double sla_demand_fraction = 0.5;
};

// Overbooking notification passed to higher-level policies.
struct OverflowEvent {
  SimTime time = 0;
  double required_vops = 0.0;  // sum of unscaled allocations
  double capacity_vops = 0.0;  // provisionable floor
  double scale = 1.0;          // applied to every tenant
};

class ResourcePolicy {
 public:
  ResourcePolicy(sim::EventLoop& loop, IoScheduler& scheduler,
                 CapacityModel& capacity, PolicyOptions options = {});
  ~ResourcePolicy();

  ResourcePolicy(const ResourcePolicy&) = delete;
  ResourcePolicy& operator=(const ResourcePolicy&) = delete;

  void SetReservation(TenantId tenant, Reservation r);
  Reservation GetReservation(TenantId tenant) const;

  // The tenant's declared LSM compaction policy (raw code, matching
  // obs::AuditTenantEntry::compaction_policy: 0 = leveled, 1 =
  // size-tiered). Purely observational at this layer: it is stamped on
  // audit records so attribution/conformance verdicts can be read against
  // the policy that shaped the indirect profile.
  void SetCompactionPolicy(TenantId tenant, uint8_t policy);
  uint8_t CompactionPolicyOf(TenantId tenant) const;

  // The attribution profile the tenant declared at admission — what the
  // tracker-derived observed q̂^{a,i} is verified against. Optional:
  // tenants without a declaration are monitored but never flagged.
  void SetDeclaredProfile(TenantId tenant, obs::DeclaredAttribution declared);
  obs::DeclaredAttribution DeclaredOf(TenantId tenant) const;

  void SetOverflowCallback(std::function<void(const OverflowEvent&)> cb) {
    overflow_cb_ = std::move(cb);
  }

  // Starts/stops the periodic reprovisioning task. While started, the
  // policy keeps one timer pending at all times, so EventLoop::Run() will
  // not drain: drive the simulation with RunUntil/RunFor and call Stop()
  // before a final draining Run().
  void Start();
  void Stop();
  bool running() const { return running_; }

  // Runs one provisioning step immediately (also used by tests). One pass
  // over the reserved tenants in ascending id order prices each (tenant,
  // class) once; the allocation, the SLA row and the audit row all reuse
  // that price.
  void RunIntervalStep();

  // Introspection for the evaluation harnesses.
  AppRequestProfile ProfileOf(TenantId tenant, AppRequest app) const;

  // Per-interval provisioning decisions: what each tenant reserved, the
  // profile components and VOP prices used, what was granted, and whether
  // (and by how much) overbooking scaled the grants down.
  const obs::ProvisioningAuditLog& audit_log() const { return audit_log_; }

  // Per-tenant achieved-vs-reserved conformance, updated every interval.
  const obs::SlaMonitor& sla() const { return sla_; }

 private:
  // What the policy keeps per tenant, in a vector indexed by TenantSlot
  // (the scheduler's registry assigns the slots).
  struct TenantRow {
    bool reserved = false;  // SetReservation was called
    Reservation reservation;
    uint8_t compaction_policy = 0;
    std::unique_ptr<obs::DeclaredAttribution> declared;  // nullptr: none
    double last_vops = 0.0;  // tracker VOPs at the last step (SLA deltas)
  };
  TenantRow& Row(TenantId tenant);
  const TenantRow* FindRow(TenantId tenant) const;

  // One reserved tenant's prices within a step: the profile and the VOP
  // price of each class, priced once and reused for every output.
  struct Priced {
    TenantSlot slot;
    TenantId id;
    AppRequestProfile profile[kNumAppRequests];
    double price[kNumAppRequests] = {};
    double required = 0.0;
    double achieved = 0.0;
    bool violated = false;
  };

  // Cost-model price of a normalized request at the tenant's observed mean
  // object size (fallback/no-profile pricing).
  double ObjectSizePrice(TenantSlot tenant, AppRequest app) const;

  sim::EventLoop& loop_;
  IoScheduler& scheduler_;
  CapacityModel& capacity_;
  PolicyOptions options_;
  std::vector<TenantRow> rows_;  // by TenantSlot
  obs::SlaMonitor sla_;
  std::function<void(const OverflowEvent&)> overflow_cb_;
  sim::EventLoop::EventId pending_event_ = 0;
  bool running_ = false;
  double last_total_vops_ = 0.0;
  SimTime last_roll_time_ = 0;
  obs::ProvisioningAuditLog audit_log_;
};

}  // namespace libra::iosched

#endif  // LIBRA_SRC_IOSCHED_RESOURCE_POLICY_H_
