#include "src/iosched/resource_tracker.h"

#include <cassert>

namespace libra::iosched {

ResourceTracker::Tenant::Tenant(double alpha) {
  for (AppClass& a : app) {
    a.q = Ewma(alpha);
    a.mean_size = Ewma(alpha);
  }
  for (InternalClass& i : internal) {
    i.q = Ewma(alpha);
  }
  for (TriggerClass& t : trig) {
    t.rate = Ewma(alpha);
  }
}

ResourceTracker::ResourceTracker(double ewma_alpha) : alpha_(ewma_alpha) {}

ResourceTracker::Tenant& ResourceTracker::Row(TenantSlot slot) {
  const size_t i = SlotIndex(slot);
  if (i >= rows_.size()) {
    rows_.resize(i + 1);
  }
  if (rows_[i] == nullptr) {
    rows_[i] = std::make_unique<Tenant>(alpha_);
  }
  return *rows_[i];
}

const ResourceTracker::Tenant* ResourceTracker::Recorded(
    TenantSlot slot) const {
  const size_t i = SlotIndex(slot);
  return i < rows_.size() ? rows_[i].get() : nullptr;
}

void ResourceTracker::RecordIo(const IoTag& tag, ssd::IoType type,
                               uint32_t size_bytes, double vop_cost) {
  Tenant& t = Row(tag.slot != TenantSlot::kNone ? tag.slot
                                                : slots_.Assign(tag.tenant));
  total_vops_ += vop_cost;
  t.stats.vops += vop_cost;
  if (type == ssd::IoType::kRead) {
    ++t.stats.read_ops;
    t.stats.read_bytes += size_bytes;
  } else {
    ++t.stats.write_ops;
    t.stats.write_bytes += size_bytes;
  }
  if (tag.internal != InternalOp::kNone) {
    t.internal[static_cast<int>(tag.internal)].u += vop_cost;
  } else {
    t.app[static_cast<int>(tag.app)].u += vop_cost;
  }
  t.vops_by[static_cast<int>(tag.app)][static_cast<int>(tag.internal)]
          [static_cast<int>(type)] += vop_cost;
}

void ResourceTracker::RecordIoShare(const IoTag& tag, ssd::IoType type,
                                    uint32_t size_bytes, double vop_cost) {
  ++shared_io_shares_;
  shared_io_bytes_ += size_bytes;
  RecordIo(tag, type, size_bytes, vop_cost);
}

void ResourceTracker::RecordAppRequest(TenantSlot tenant, AppRequest app,
                                       uint64_t size_bytes) {
  Tenant& t = Row(tenant);
  const double n = NormalizedRequests(size_bytes);
  AppClass& cls = t.app[static_cast<int>(app)];
  cls.s += n;
  cls.s_total += n;
  cls.bytes += static_cast<double>(size_bytes);
  cls.requests += 1.0;
  // Every trigger class originating from this request type sees the new
  // requests in its since-last-trigger accumulator.
  for (int i = 0; i < kNumInternalOps; ++i) {
    t.trig[static_cast<int>(app) * kNumInternalOps + i].s_accum += n;
  }
}

void ResourceTracker::RecordTrigger(TenantSlot tenant, AppRequest origin,
                                    InternalOp op) {
  Tenant& t = Row(tenant);
  t.trig[static_cast<int>(origin) * kNumInternalOps + static_cast<int>(op)]
      .triggers += 1.0;
}

void ResourceTracker::RecordInternalOpDone(TenantSlot tenant, InternalOp op) {
  Row(tenant).internal[static_cast<int>(op)].ops += 1.0;
}

void ResourceTracker::Roll() {
  for (const std::unique_ptr<Tenant>& row : rows_) {
    if (row == nullptr) {
      continue;
    }
    Tenant& t = *row;
    for (auto& a : t.app) {
      if (a.s > 0.0) {
        a.q.Observe(a.u / a.s);
      }
      if (a.requests > 0.0) {
        a.mean_size.Observe(a.bytes / a.requests);
      }
      a.u = 0.0;
      a.s = 0.0;
      a.bytes = 0.0;
      a.requests = 0.0;
    }
    for (auto& i : t.internal) {
      if (i.ops > 0.0) {
        i.q.Observe(i.u / i.ops);
        i.u = 0.0;
        i.ops = 0.0;
      }
      // If an op is still in flight (u > 0 but ops == 0), leave its partial
      // consumption accumulating: it is attributed when the op completes,
      // normalized by the full span of requests since the last trigger.
    }
    for (auto& tr : t.trig) {
      if (tr.triggers > 0.0 && tr.s_accum > 0.0) {
        tr.rate.Observe(tr.triggers / tr.s_accum);
        tr.triggers = 0.0;
        tr.s_accum = 0.0;
      }
      // Without a trigger this interval, s_accum keeps growing so that a
      // sporadic operation's rate reflects the full inter-trigger span.
    }
  }
}

AppRequestProfile ResourceTracker::Profile(TenantSlot tenant, AppRequest app,
                                           double fallback_direct) const {
  AppRequestProfile p;
  const Tenant* row = Recorded(tenant);
  if (row == nullptr) {
    p.direct = fallback_direct;
    return p;
  }
  const Tenant& t = *row;
  const AppClass& a = t.app[static_cast<int>(app)];
  p.direct = a.q.initialized() ? a.q.Value() : fallback_direct;
  for (int i = 1; i < kNumInternalOps; ++i) {
    const InternalClass& ic = t.internal[i];
    const TriggerClass& tc = t.trig[static_cast<int>(app) * kNumInternalOps + i];
    if (ic.q.initialized() && tc.rate.initialized()) {
      p.indirect[i] = ic.q.Value() * tc.rate.Value();
    }
  }
  return p;
}

double ResourceTracker::VopsBy(TenantSlot tenant, AppRequest app,
                               InternalOp internal, ssd::IoType type) const {
  const Tenant* t = Recorded(tenant);
  if (t == nullptr) {
    return 0.0;
  }
  return t->vops_by[static_cast<int>(app)][static_cast<int>(internal)]
                           [static_cast<int>(type)];
}

double ResourceTracker::MeanRequestSize(TenantSlot tenant,
                                        AppRequest app) const {
  const Tenant* t = Recorded(tenant);
  if (t == nullptr) {
    return 0.0;
  }
  const AppClass& cls = t->app[static_cast<int>(app)];
  // Prefer the smoothed value; fall back to the live interval.
  if (cls.mean_size.initialized()) {
    return cls.mean_size.Value();
  }
  return cls.requests > 0.0 ? cls.bytes / cls.requests : 0.0;
}

double ResourceTracker::NormalizedRequestsTotal(TenantSlot tenant,
                                                AppRequest app) const {
  const Tenant* t = Recorded(tenant);
  if (t == nullptr) {
    return 0.0;
  }
  return t->app[static_cast<int>(app)].s_total;
}

std::optional<obs::AttributionMatrix> ResourceTracker::Attribution(
    TenantSlot tenant) const {
  static_assert(kNumAppRequests == obs::kAttrApps &&
                kNumInternalOps == obs::kAttrInternal);
  const Tenant* row = Recorded(tenant);
  if (row == nullptr) {
    return std::nullopt;
  }
  const Tenant& t = *row;
  constexpr int kR = static_cast<int>(ssd::IoType::kRead);
  constexpr int kW = static_cast<int>(ssd::IoType::kWrite);
  obs::AttributionMatrix m;
  for (int a = 0; a < kNumAppRequests; ++a) {
    for (int i = 0; i < kNumInternalOps; ++i) {
      m.vops[a][i] = t.vops_by[a][i][kR] + t.vops_by[a][i][kW];
    }
    m.norm_requests[a] = t.app[a].s_total;
  }
  m.total_vops = t.stats.vops;
  return m;
}

const TenantIoStats& ResourceTracker::Stats(TenantSlot tenant) const {
  const Tenant* t = Recorded(tenant);
  return t == nullptr ? empty_stats_ : t->stats;
}

std::vector<TenantId> ResourceTracker::tenants() const {
  std::vector<TenantId> out;
  for (const TenantSlots::Entry& e : slots_.by_id()) {
    if (Recorded(e.slot) != nullptr) {
      out.push_back(e.id);
    }
  }
  return out;
}

}  // namespace libra::iosched
