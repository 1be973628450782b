// Deterministic shard placement for the cluster layer.
//
// Each tenant's keyspace is divided into a fixed number of shard slots
// (slot = hash(key) mod shards_per_tenant); slots are placed on nodes by
// consistent hashing: every node projects `vnodes_per_node` points onto a
// 64-bit ring, and a (tenant, slot) pair homes on the first node point at or
// after its own ring position. The construction is a pure function of the
// options, so two maps built from the same spec agree on every placement —
// the property a restarting router or a test harness relies on.
//
// The map has no mutable state. A migration re-homes a slot's leader; the
// cluster keeps each tenant's current replica sets with the tenant
// (Cluster::TenantState) and asks ReplicasOf for the set around a new
// leader.

#ifndef LIBRA_SRC_CLUSTER_SHARD_MAP_H_
#define LIBRA_SRC_CLUSTER_SHARD_MAP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace libra::cluster {

// Largest supported replication factor (ShardMapOptions asserts it).
inline constexpr int kMaxReplicas = 8;

// A slot's replica set: the leader first, then the followers, all distinct
// nodes. Fixed capacity, so routing a request allocates nothing.
class Replicas {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](size_t i) const { return nodes_[i]; }
  const int* begin() const { return nodes_.data(); }
  const int* end() const { return nodes_.data() + size_; }
  bool contains(int node) const {
    for (const int n : *this) {
      if (n == node) {
        return true;
      }
    }
    return false;
  }
  void push_back(int node) { nodes_[size_++] = node; }

 private:
  std::array<int, kMaxReplicas> nodes_{};
  size_t size_ = 0;
};

struct ShardMapOptions {
  int num_nodes = 4;
  int shards_per_tenant = 8;
  // Virtual points per node on the hash ring; more points smooth the
  // slot-count imbalance between nodes.
  int vnodes_per_node = 64;
  uint64_t seed = 0x11b7a5eed;  // any change reshuffles every placement
  // Replicas per slot: the leader plus rf-1 followers on distinct nodes
  // (the next distinct nodes walking the ring from the slot's position).
  // Clamped to num_nodes, at most kMaxReplicas. 1 = unreplicated, the
  // pre-replication layout.
  int replication_factor = 1;
};

class ShardMap {
 public:
  explicit ShardMap(ShardMapOptions options);

  int num_nodes() const { return options_.num_nodes; }
  int shards_per_tenant() const { return options_.shards_per_tenant; }
  int replication_factor() const {
    return options_.replication_factor < options_.num_nodes
               ? options_.replication_factor
               : options_.num_nodes;
  }

  // Shard slot of a key (tenant-independent: a tenant's keys spread over
  // all of its slots regardless of id).
  int SlotOfKey(std::string_view key) const;

  // Ring placement of (tenant, slot): the node a slot homes on until a
  // migration moves it (Cluster::HomeOf answers for the current home).
  int HomeOf(uint32_t tenant, int slot) const;

  // Replica set of (tenant, slot) led by `leader` (the ring placement when
  // negative): the leader first, then RF-1 followers — the next distinct
  // nodes walking the ring from the slot's position. Size =
  // replication_factor() (leader-only at RF=1). A re-homed slot's walk
  // starts at the ring's own leader, which becomes the first follower, so
  // the last ring follower drops out of the set.
  Replicas ReplicasOf(uint32_t tenant, int slot, int leader = -1) const;

 private:
  struct RingPoint {
    uint64_t point;
    int node;
    bool operator<(const RingPoint& other) const {
      if (point != other.point) {
        return point < other.point;
      }
      return node < other.node;  // total order: ties must break the same way
    }
  };

  int RingLookup(uint64_t point) const;
  // Index of the first ring point at or after `point` (wrapping).
  size_t RingIndex(uint64_t point) const;
  uint64_t SlotPoint(uint32_t tenant, int slot) const;

  ShardMapOptions options_;
  std::vector<RingPoint> ring_;  // sorted by point
};

}  // namespace libra::cluster

#endif  // LIBRA_SRC_CLUSTER_SHARD_MAP_H_
