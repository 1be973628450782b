#include "src/cluster/shard_map.h"

#include <algorithm>
#include <cassert>

namespace libra::cluster {

namespace {

// splitmix64 finalizer: cheap, well-mixed, and stable across platforms.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over the key bytes, then mixed; byte-wise, so no platform
// endianness leaks into placement.
uint64_t HashKey(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

ShardMap::ShardMap(ShardMapOptions options) : options_(options) {
  assert(options_.num_nodes > 0);
  assert(options_.shards_per_tenant > 0);
  assert(options_.vnodes_per_node > 0);
  assert(options_.replication_factor <= kMaxReplicas);
  ring_.reserve(static_cast<size_t>(options_.num_nodes) *
                static_cast<size_t>(options_.vnodes_per_node));
  for (int n = 0; n < options_.num_nodes; ++n) {
    for (int v = 0; v < options_.vnodes_per_node; ++v) {
      const uint64_t point =
          Mix64(options_.seed ^ (static_cast<uint64_t>(n) * 0x9e3779b1ULL) ^
                (static_cast<uint64_t>(v) << 32));
      ring_.push_back(RingPoint{point, n});
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ShardMap::SlotOfKey(std::string_view key) const {
  return static_cast<int>(HashKey(key) %
                          static_cast<uint64_t>(options_.shards_per_tenant));
}

size_t ShardMap::RingIndex(uint64_t point) const {
  // First ring point at or after `point`, wrapping to the smallest.
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const RingPoint& rp, uint64_t p) { return rp.point < p; });
  return it == ring_.end() ? 0 : static_cast<size_t>(it - ring_.begin());
}

int ShardMap::RingLookup(uint64_t point) const {
  return ring_[RingIndex(point)].node;
}

uint64_t ShardMap::SlotPoint(uint32_t tenant, int slot) const {
  return Mix64(options_.seed ^
               (static_cast<uint64_t>(tenant) * 0x85ebca6bULL) ^
               (static_cast<uint64_t>(slot) * 0xc2b2ae35ULL));
}

int ShardMap::HomeOf(uint32_t tenant, int slot) const {
  assert(slot >= 0 && slot < options_.shards_per_tenant);
  return RingLookup(SlotPoint(tenant, slot));
}

Replicas ShardMap::ReplicasOf(uint32_t tenant, int slot, int leader) const {
  const int rf = replication_factor();
  Replicas out;
  out.push_back(leader >= 0 ? leader : HomeOf(tenant, slot));
  if (rf <= 1) {
    return out;
  }
  // Followers: walk the ring from the slot's own position, collecting the
  // next distinct nodes. The leader's natural home is the first point on
  // that walk, so with no override the walk yields leader + successors.
  size_t idx = RingIndex(SlotPoint(tenant, slot));
  for (size_t steps = 0;
       steps < ring_.size() && out.size() < static_cast<size_t>(rf);
       ++steps) {
    const int node = ring_[idx].node;
    if (!out.contains(node)) {
      out.push_back(node);
    }
    idx = (idx + 1) % ring_.size();
  }
  return out;
}

int ShardMap::NodeOfKey(uint32_t tenant, std::string_view key) const {
  return HomeOf(tenant, SlotOfKey(key));
}

std::vector<int> ShardMap::Assignment(uint32_t tenant) const {
  std::vector<int> out(options_.shards_per_tenant);
  for (int s = 0; s < options_.shards_per_tenant; ++s) {
    out[s] = HomeOf(tenant, s);
  }
  return out;
}

}  // namespace libra::cluster
