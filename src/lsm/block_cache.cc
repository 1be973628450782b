#include "src/lsm/block_cache.h"

#include <utility>

namespace libra::lsm {

BlockCache::BlockCache(uint64_t capacity_bytes, bool cache_data)
    : capacity_bytes_(capacity_bytes), cache_data_(cache_data) {
  lru_.prev_ = &lru_;
  lru_.next_ = &lru_;
}

void BlockCache::Insert(Slot& slot, TenantCounters& tenant,
                        std::string_view bytes, TableIndexRef index) {
  Erase(slot);  // replace semantics (concurrent loaders may both insert)
  slot.tenant_ = &tenant;
  slot.bytes_ = bytes;
  slot.index_ = std::move(index);
  LinkFront(slot);
  ++entries_;
  resident_bytes_ += bytes.size();
  if (capacity_bytes_ == 0) {
    return;  // unbounded
  }
  while (resident_bytes_ > capacity_bytes_ && lru_.prev_ != &slot) {
    Slot& victim = *lru_.prev_;
    ++evictions_;
    ++victim.tenant_->evictions;
    Erase(victim);
  }
}

void BlockCache::Erase(Slot& slot) {
  if (!slot.resident()) {
    return;
  }
  Unlink(slot);
  --entries_;
  resident_bytes_ -= slot.bytes_.size();
  slot.tenant_ = nullptr;
  slot.bytes_ = {};
  slot.index_.reset();
}

BlockCache::TenantCounters BlockCache::CountersOf(
    iosched::TenantSlot slot) const {
  const size_t i = iosched::SlotIndex(slot);
  return i < tenants_.size() && tenants_[i] != nullptr ? *tenants_[i]
                                                      : TenantCounters{};
}

}  // namespace libra::lsm
