// Per-node tenant registry: TenantId -> dense TenantSlot.
//
// A node keeps several per-tenant tables (scheduler queues, tracker
// profiles, policy reservations, SLA rows, partitions). Each is a vector
// indexed by the tenant's slot, which this registry assigns once, at
// registration, in arrival order; requests carry the slot (IoTag::slot,
// LsmDb) so the tables are reached without a keyed lookup. Slots are
// never reused: tenants are never removed from a node.
//
// Output and DRR dispatch order is ascending TenantId regardless of the
// order tenants arrived in, so the registry also keeps the one sorted
// order: by_id() lists the slots by id, and RankOf(slot) is the slot's
// position in that list (the DRR ring position). A registration shifts the
// ranks above it (O(tenants), off the request path).

#ifndef LIBRA_SRC_IOSCHED_TENANT_SLOTS_H_
#define LIBRA_SRC_IOSCHED_TENANT_SLOTS_H_

#include <cstdint>
#include <vector>

#include "src/iosched/io_tag.h"

namespace libra::iosched {

class TenantSlots {
 public:
  struct Entry {
    TenantId id;
    TenantSlot slot;
  };

  // The tenant's slot, assigning the next one if `id` is new.
  TenantSlot Assign(TenantId id);
  // The tenant's slot, or kNone when `id` was never assigned one.
  TenantSlot Find(TenantId id) const;

  uint32_t RankOf(TenantSlot s) const { return rank_[SlotIndex(s)]; }
  size_t size() const { return rank_.size(); }
  // Every assigned slot, in ascending id order.
  const std::vector<Entry>& by_id() const { return by_id_; }

 private:
  // Index of the first by_id_ entry with id >= `id`.
  size_t LowerBound(TenantId id) const;

  std::vector<uint32_t> rank_;  // by slot: index into by_id_
  std::vector<Entry> by_id_;    // ascending id
};

}  // namespace libra::iosched

#endif  // LIBRA_SRC_IOSCHED_TENANT_SLOTS_H_
