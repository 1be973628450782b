#include "src/iosched/tenant_slots.h"

#include <algorithm>

namespace libra::iosched {

size_t TenantSlots::LowerBound(TenantId id) const {
  return static_cast<size_t>(
      std::lower_bound(by_id_.begin(), by_id_.end(), id,
                       [](const Entry& e, TenantId v) { return e.id < v; }) -
      by_id_.begin());
}

TenantSlot TenantSlots::Find(TenantId id) const {
  const size_t i = LowerBound(id);
  return i < by_id_.size() && by_id_[i].id == id ? by_id_[i].slot
                                                 : TenantSlot::kNone;
}

TenantSlot TenantSlots::Assign(TenantId id) {
  const size_t i = LowerBound(id);
  if (i < by_id_.size() && by_id_[i].id == id) {
    return by_id_[i].slot;
  }
  const auto slot = static_cast<TenantSlot>(rank_.size());
  rank_.push_back(0);
  by_id_.insert(by_id_.begin() + static_cast<ptrdiff_t>(i), Entry{id, slot});
  for (size_t k = i; k < by_id_.size(); ++k) {
    rank_[SlotIndex(by_id_[k].slot)] = static_cast<uint32_t>(k);
  }
  return slot;
}

}  // namespace libra::iosched
