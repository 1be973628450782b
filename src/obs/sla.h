// SLA conformance monitoring: achieved-vs-reserved VOPs per audit interval.
//
// The resource policy prices each tenant's reservation into a required
// VOP/s rate once per interval; this monitor records, for the same
// interval, the VOP/s the tenant actually consumed and whether that
// constitutes an SLA violation: achieved below (1 - tolerance) x reserved
// *while the tenant had pending demand* (an idle tenant under-consuming is
// not a violation — the guarantee is conditional on offered load, paper
// §4.3). Violation rates feed the audit log and node/cluster stats JSON,
// and are the signal elastic-SLA (IOTune-style) and placement policies
// consume.
//
// Plain scalars only (no iosched includes): obs stays the bottom layer and
// the policy flattens its structs in, as with AuditRecord.

#ifndef LIBRA_SRC_OBS_SLA_H_
#define LIBRA_SRC_OBS_SLA_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace libra::obs {

class SlaMonitor {
 public:
  struct TenantSla {
    uint64_t intervals = 0;   // intervals with a nonzero reservation
    uint64_t violations = 0;
    int64_t last_time_ns = 0;
    double last_reserved_vops = 0.0;  // VOP/s the reservation priced to
    double last_achieved_vops = 0.0;  // VOP/s actually consumed
    bool last_violated = false;

    double violation_rate() const {
      return intervals > 0
                 ? static_cast<double>(violations) / static_cast<double>(intervals)
                 : 0.0;
    }
  };

  // One interval observation of tenant `tenant`, whose row is `slot` (the
  // node's dense tenant index); returns whether it violated.
  // `demand_pending` is whether the tenant had enough queued or in-flight
  // work over the interval to hold the node to its reservation.
  bool RecordInterval(uint32_t slot, uint32_t tenant, int64_t time_ns,
                      double reserved_vops, double achieved_vops,
                      bool demand_pending, double tolerance) {
    if (slot >= rows_.size()) {
      rows_.resize(slot + 1);
    }
    Row& row = rows_[slot];
    if (!row.tracked) {
      row.tracked = true;
      row.tenant = tenant;
      const auto at = std::lower_bound(
          order_.begin(), order_.end(), tenant,
          [this](uint32_t s, uint32_t id) { return rows_[s].tenant < id; });
      order_.insert(at, slot);
    }
    TenantSla& s = row.sla;
    const bool reserved = reserved_vops > 0.0;
    const bool violated = reserved && demand_pending &&
                          achieved_vops < (1.0 - tolerance) * reserved_vops;
    if (reserved) {
      ++s.intervals;
    }
    if (violated) {
      ++s.violations;
    }
    s.last_time_ns = time_ns;
    s.last_reserved_vops = reserved_vops;
    s.last_achieved_vops = achieved_vops;
    s.last_violated = violated;
    return violated;
  }

  // nullptr until the tenant has recorded an interval.
  const TenantSla* OfSlot(uint32_t slot) const {
    return slot < rows_.size() && rows_[slot].tracked ? &rows_[slot].sla
                                                      : nullptr;
  }
  const TenantSla* Of(uint32_t tenant) const {
    const auto at = std::lower_bound(
        order_.begin(), order_.end(), tenant,
        [this](uint32_t s, uint32_t id) { return rows_[s].tenant < id; });
    return at != order_.end() && rows_[*at].tenant == tenant
               ? &rows_[*at].sla
               : nullptr;
  }

  // Tracked tenants in ascending id order (the JSON export order).
  std::vector<uint32_t> tenants() const {
    std::vector<uint32_t> out;
    out.reserve(order_.size());
    for (const uint32_t s : order_) {
      out.push_back(rows_[s].tenant);
    }
    return out;
  }

 private:
  struct Row {
    bool tracked = false;
    uint32_t tenant = 0;
    TenantSla sla;
  };
  std::vector<Row> rows_;        // by slot
  std::vector<uint32_t> order_;  // tracked slots, ascending tenant id
};

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_SLA_H_
