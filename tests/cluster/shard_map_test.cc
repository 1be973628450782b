#include "src/cluster/shard_map.h"

#include <map>
#include <string>

#include "gtest/gtest.h"

namespace libra::cluster {
namespace {

TEST(ShardMapTest, SameSpecSamePlacement) {
  ShardMapOptions opt;
  opt.num_nodes = 5;
  opt.shards_per_tenant = 16;
  ShardMap a(opt);
  ShardMap b(opt);
  for (uint32_t tenant = 0; tenant < 20; ++tenant) {
    for (int s = 0; s < opt.shards_per_tenant; ++s) {
      EXPECT_EQ(a.HomeOf(tenant, s), b.HomeOf(tenant, s)) << tenant;
    }
  }
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.SlotOfKey(key), b.SlotOfKey(key));
  }
}

TEST(ShardMapTest, SeedChangesPlacement) {
  ShardMapOptions opt;
  opt.num_nodes = 8;
  opt.shards_per_tenant = 64;
  ShardMap a(opt);
  opt.seed ^= 1;
  ShardMap b(opt);
  int moved = 0;
  for (int s = 0; s < opt.shards_per_tenant; ++s) {
    if (a.HomeOf(1, s) != b.HomeOf(1, s)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(ShardMapTest, PlacementsInRangeAndCoverEveryNode) {
  ShardMapOptions opt;
  opt.num_nodes = 4;
  opt.shards_per_tenant = 8;
  ShardMap map(opt);
  std::map<int, int> hits;
  for (uint32_t tenant = 0; tenant < 64; ++tenant) {
    for (int s = 0; s < opt.shards_per_tenant; ++s) {
      const int node = map.HomeOf(tenant, s);
      ASSERT_GE(node, 0);
      ASSERT_LT(node, opt.num_nodes);
      ++hits[node];
    }
  }
  // With 512 placements over 4 nodes and 64 vnodes each, every node should
  // home something.
  EXPECT_EQ(hits.size(), static_cast<size_t>(opt.num_nodes));
}

TEST(ShardMapTest, RehomeOverridesRing) {
  ShardMapOptions opt;
  opt.replication_factor = 2;
  const ShardMap map(opt);
  const int slot = 2;
  const Replicas ring = map.ReplicasOf(9, slot);
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0], map.HomeOf(9, slot));
  // A re-homed leader goes first; the followers still come from the ring
  // walk from the slot's position, so the ring's leader is demoted to the
  // first follower.
  const int target = (ring[0] + 1) % map.num_nodes();
  const Replicas moved = map.ReplicasOf(9, slot, target);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0], target);
  EXPECT_EQ(moved[1], ring[0]);
  // The map itself keeps no state: the ring placement is unchanged.
  EXPECT_EQ(map.HomeOf(9, slot), ring[0]);
}

TEST(ShardMapTest, KeysSpreadAcrossSlots) {
  ShardMap map(ShardMapOptions{});
  std::map<int, int> slot_hits;
  for (int i = 0; i < 4096; ++i) {
    ++slot_hits[map.SlotOfKey("object-" + std::to_string(i))];
  }
  EXPECT_EQ(slot_hits.size(), static_cast<size_t>(map.shards_per_tenant()));
}

}  // namespace
}  // namespace libra::cluster
