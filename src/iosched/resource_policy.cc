#include "src/iosched/resource_policy.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace libra::iosched {

ResourcePolicy::ResourcePolicy(sim::EventLoop& loop, IoScheduler& scheduler,
                               CapacityModel& capacity, PolicyOptions options)
    : loop_(loop),
      scheduler_(scheduler),
      capacity_(capacity),
      options_(options),
      audit_log_(options.audit_capacity) {
  assert(options_.interval > 0);
}

ResourcePolicy::~ResourcePolicy() { Stop(); }

ResourcePolicy::TenantRow& ResourcePolicy::Row(TenantId tenant) {
  const size_t i = SlotIndex(scheduler_.slots().Assign(tenant));
  if (i >= rows_.size()) {
    rows_.resize(i + 1);
  }
  return rows_[i];
}

const ResourcePolicy::TenantRow* ResourcePolicy::FindRow(
    TenantId tenant) const {
  const size_t i = SlotIndex(scheduler_.slots().Find(tenant));
  return i < rows_.size() ? &rows_[i] : nullptr;
}

void ResourcePolicy::SetReservation(TenantId tenant, Reservation r) {
#ifndef NDEBUG
  for (int a = kFirstAppRequest; a < kNumAppRequests; ++a) {
    assert(r.rps[a] >= 0.0);
  }
#endif
  assert(r.rps[static_cast<int>(AppRequest::kNone)] == 0.0);
  TenantRow& row = Row(tenant);
  row.reserved = true;
  row.reservation = r;
}

Reservation ResourcePolicy::GetReservation(TenantId tenant) const {
  const TenantRow* row = FindRow(tenant);
  return row == nullptr ? Reservation{} : row->reservation;
}

void ResourcePolicy::SetCompactionPolicy(TenantId tenant, uint8_t policy) {
  Row(tenant).compaction_policy = policy;
}

uint8_t ResourcePolicy::CompactionPolicyOf(TenantId tenant) const {
  const TenantRow* row = FindRow(tenant);
  return row == nullptr ? 0 : row->compaction_policy;
}

void ResourcePolicy::SetDeclaredProfile(TenantId tenant,
                                        obs::DeclaredAttribution declared) {
  Row(tenant).declared =
      std::make_unique<obs::DeclaredAttribution>(declared);
}

obs::DeclaredAttribution ResourcePolicy::DeclaredOf(TenantId tenant) const {
  const TenantRow* row = FindRow(tenant);
  return row == nullptr || row->declared == nullptr ? obs::DeclaredAttribution{}
                                                    : *row->declared;
}

void ResourcePolicy::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  last_roll_time_ = loop_.Now();
  last_total_vops_ = scheduler_.tracker().total_vops();
  // Provision immediately from fallback prices, then on every interval.
  RunIntervalStep();
  auto reschedule = [this](auto&& self) -> void {
    pending_event_ = loop_.ScheduleAfter(options_.interval, [this, self] {
      if (!running_) {
        return;
      }
      RunIntervalStep();
      self(self);
    });
  };
  reschedule(reschedule);
}

void ResourcePolicy::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (pending_event_ != 0) {
    loop_.Cancel(pending_event_);
    pending_event_ = 0;
  }
}

double ResourcePolicy::ObjectSizePrice(TenantSlot tenant,
                                       AppRequest app) const {
  const CostModel& model = scheduler_.cost_model();
  ssd::IoType type = ssd::IoType::kRead;
  switch (app) {
    case AppRequest::kGet:
    case AppRequest::kScan:
      type = ssd::IoType::kRead;
      break;
    case AppRequest::kPut:
      type = ssd::IoType::kWrite;
      break;
    case AppRequest::kNone:
      break;  // unattributed classes are never priced; kRead is inert
  }
  double mean = scheduler_.tracker().MeanRequestSize(tenant, app);
  if (mean <= 0.0) {
    mean = 1024.0;  // nothing observed yet: price a 1KB object
  }
  // VOPs for one object IO of the mean size, per normalized request.
  const uint32_t size = static_cast<uint32_t>(std::max(1.0, mean));
  return model.Cost(type, size) / NormalizedRequests(size);
}

AppRequestProfile ResourcePolicy::ProfileOf(TenantId tenant,
                                            AppRequest app) const {
  const TenantSlot slot = scheduler_.slots().Find(tenant);
  return scheduler_.tracker().Profile(slot, app, ObjectSizePrice(slot, app));
}

void ResourcePolicy::RunIntervalStep() {
  ResourceTracker& tracker = scheduler_.tracker();

  // Feed the live capacity monitor with the interval's achieved VOP/s.
  const SimTime now = loop_.Now();
  const double elapsed_secs =
      now > last_roll_time_ ? ToSeconds(now - last_roll_time_) : 0.0;
  if (elapsed_secs > 0.0) {
    const double vops = tracker.total_vops();
    capacity_.ObserveThroughput((vops - last_total_vops_) / elapsed_secs);
    last_total_vops_ = vops;
    last_roll_time_ = now;
  }

  tracker.Roll();

  // Price every reservation under the current profiles: the reserved rate
  // of every application request class times its per-class VOP price.
  // Re-replication catch-up is membership-event work, not steady-state
  // per-request amplification like FLUSH/COMPACT: its VOPs are charged to
  // the tenant's allocation as they happen, but baking them into the
  // per-request price would overbook the node for intervals after every
  // recovery and scale down the surviving tenants' allocations.
  std::vector<Priced> priced;
  priced.reserve(rows_.size());
  double total = 0.0;
  for (const TenantSlots::Entry& entry : scheduler_.slots().by_id()) {
    const size_t i = SlotIndex(entry.slot);
    if (i >= rows_.size() || !rows_[i].reserved) {
      continue;
    }
    const Reservation& res = rows_[i].reservation;
    Priced& p = priced.emplace_back();
    p.slot = entry.slot;
    p.id = entry.id;
    for (int a = kFirstAppRequest; a < kNumAppRequests; ++a) {
      const AppRequest app = static_cast<AppRequest>(a);
      const double object_price = ObjectSizePrice(entry.slot, app);
      p.profile[a] = tracker.Profile(entry.slot, app, object_price);
      if (options_.mode == ProfileMode::kObjectSizeOnly) {
        p.price[a] = object_price;
      } else {
        AppRequestProfile steady = p.profile[a];
        steady.indirect[static_cast<size_t>(InternalOp::kReplicate)] = 0.0;
        p.price[a] = steady.total();
      }
      if (res.rps[a] > 0.0) {
        p.required += res.rps[a] * p.price[a];
      }
    }
    total += p.required;
  }

  // Overbooking: scale every allocation proportionally into the floor and
  // notify the higher-level policy.
  double scale = 1.0;
  const double cap = capacity_.provisionable();
  const bool overbooked = total > cap && total > 0.0;
  if (overbooked) {
    scale = cap / total;
    if (overflow_cb_) {
      overflow_cb_(OverflowEvent{now, total, cap, scale});
    }
  }
  for (const Priced& p : priced) {
    scheduler_.SetAllocation(p.slot, p.required * scale);
  }

  // SLA conformance: did each tenant achieve its priced reservation over the
  // interval that just ended? Demand-gated — an idle tenant below its
  // reservation is not a violation, a backlogged one is. Demand is measured
  // over the interval (busy time), not sampled at its end: the guarantee is
  // conditional on offered load, and one in-flight request at the sampling
  // instant must not turn a tenant-side load dip into a violation.
  if (elapsed_secs > 0.0) {
    for (Priced& p : priced) {
      const double vops_now = tracker.Stats(p.slot).vops;
      double& last = rows_[SlotIndex(p.slot)].last_vops;
      p.achieved = (vops_now - last) / elapsed_secs;
      last = vops_now;
      const double busy_secs = ToSeconds(scheduler_.ConsumeDemandTime(p.slot));
      const bool demand_pending =
          busy_secs >= options_.sla_demand_fraction * elapsed_secs;
      p.violated = sla_.RecordInterval(
          static_cast<uint32_t>(SlotIndex(p.slot)), p.id, now, p.required,
          p.achieved, demand_pending, options_.sla_tolerance);
    }
  }

  // Audit trail: everything this step read and decided, per tenant.
  if (options_.audit_capacity > 0) {
    obs::AuditRecord rec;
    rec.time_ns = now;
    rec.total_required_vops = total;
    rec.capacity_floor_vops = cap;
    rec.scale = scale;
    rec.overbooked = overbooked;
    rec.tenants.reserve(priced.size());
    for (const Priced& p : priced) {
      const TenantRow& row = rows_[SlotIndex(p.slot)];
      obs::AuditTenantEntry e;
      e.tenant = p.id;
      for (int a = kFirstAppRequest; a < kNumAppRequests; ++a) {
        e.reserved_rps[a] = row.reservation.rps[a];
        e.profile_direct[a] = p.profile[a].direct;
        e.profile_flush[a] =
            p.profile[a].indirect[static_cast<int>(InternalOp::kFlush)];
        e.profile_compact[a] =
            p.profile[a].indirect[static_cast<int>(InternalOp::kCompact)];
        e.price[a] = p.price[a];
      }
      e.compaction_policy = row.compaction_policy;
      e.required_vops = p.required;
      e.granted_vops = p.required * scale;
      e.achieved_vops = p.achieved;
      e.sla_violated = p.violated;
      rec.tenants.push_back(e);
    }
    audit_log_.Append(std::move(rec));
  }
}

}  // namespace libra::iosched
