#include "src/kv/cache.h"

namespace libra::kv {

std::optional<std::string> LruCache::Get(iosched::TenantSlot slot,
                                         const std::string& key) {
  const auto it = map_.find(Key{slot, key});
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void LruCache::Put(iosched::TenantSlot slot, const std::string& key,
                   std::string value) {
  const size_t entry_bytes = key.size() + value.size();
  if (entry_bytes > capacity_) {
    Erase(slot, key);  // do not admit; drop any stale cached version
    return;
  }
  Key k{slot, key};
  const auto it = map_.find(k);
  if (it != map_.end()) {
    used_ -= it->second->bytes();
    it->second->value = std::move(value);
    used_ += entry_bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{std::move(k), std::move(value)});
    map_[lru_.front().key] = lru_.begin();
    used_ += entry_bytes;
  }
  EvictToFit();
}

void LruCache::Erase(iosched::TenantSlot slot, const std::string& key) {
  const auto it = map_.find(Key{slot, key});
  if (it == map_.end()) {
    return;
  }
  used_ -= it->second->bytes();
  lru_.erase(it->second);
  map_.erase(it);
}

void LruCache::Clear() {
  map_.clear();
  lru_.clear();
  used_ = 0;
}

void LruCache::EvictToFit() {
  while (used_ > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    used_ -= victim.bytes();
    map_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace libra::kv
