#include "src/lsm/memtable.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace libra::lsm {
namespace {

TEST(MemTableTest, PutThenGet) {
  MemTable mt;
  mt.Put("key", 1, "value");
  const auto r = mt.Get("key");
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.deleted);
  EXPECT_EQ(r.value, "value");
}

TEST(MemTableTest, MissingKeyNotFound) {
  MemTable mt;
  mt.Put("key", 1, "value");
  EXPECT_FALSE(mt.Get("other").found);
}

TEST(MemTableTest, NewestVersionWins) {
  MemTable mt;
  mt.Put("key", 1, "v1");
  mt.Put("key", 2, "v2");
  mt.Put("key", 3, "v3");
  EXPECT_EQ(mt.Get("key").value, "v3");
}

TEST(MemTableTest, SnapshotSeesOlderVersion) {
  MemTable mt;
  mt.Put("key", 1, "v1");
  mt.Put("key", 5, "v5");
  EXPECT_EQ(mt.Get("key", 4).value, "v1");
  EXPECT_EQ(mt.Get("key", 5).value, "v5");
  EXPECT_FALSE(mt.Get("key", 0).found);
}

TEST(MemTableTest, DeleteLeavesTombstone) {
  MemTable mt;
  mt.Put("key", 1, "value");
  mt.Delete("key", 2);
  const auto r = mt.Get("key");
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.deleted);
  // The old version is still visible at the old snapshot.
  EXPECT_EQ(mt.Get("key", 1).value, "value");
}

TEST(MemTableTest, MemoryUsageGrows) {
  MemTable mt;
  EXPECT_EQ(mt.ApproximateMemoryUsage(), 0u);
  mt.Put("key", 1, std::string(1000, 'v'));
  EXPECT_GT(mt.ApproximateMemoryUsage(), 1000u);
}

TEST(MemTableTest, IterationInInternalOrder) {
  MemTable mt;
  mt.Put("b", 2, "b2");
  mt.Put("a", 1, "a1");
  mt.Put("b", 5, "b5");
  mt.Put("c", 3, "c3");
  MemTable::Iterator it(&mt);
  it.SeekToFirst();
  std::vector<std::pair<std::string, SequenceNumber>> seen;
  for (; it.Valid(); it.Next()) {
    seen.emplace_back(it.entry().key, it.entry().seq);
  }
  // Keys ascending; within "b", seq descending.
  const std::vector<std::pair<std::string, SequenceNumber>> expected = {
      {"a", 1}, {"b", 5}, {"b", 2}, {"c", 3}};
  EXPECT_EQ(seen, expected);
}

TEST(MemTableTest, PrefixKeysDistinct) {
  MemTable mt;
  mt.Put("ab", 1, "x");
  mt.Put("abc", 2, "y");
  EXPECT_EQ(mt.Get("ab").value, "x");
  EXPECT_EQ(mt.Get("abc").value, "y");
  EXPECT_FALSE(mt.Get("a").found);
}

TEST(MemTableTest, SeekLandsOnNewestVersionOfFirstKeyAtOrAfter) {
  MemTable mt;
  mt.Put("a", 1, "a1");
  mt.Put("c", 2, "c2");
  mt.Put("c", 7, "c7");
  mt.Put("d", 3, "d3");
  MemTable::Iterator it(&mt);
  it.Seek("b");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.entry().key, "c");
  EXPECT_EQ(it.entry().seq, 7u);
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.entry().seq, 7u);
  it.Seek("e");
  EXPECT_FALSE(it.Valid());
}

TEST(MemTableTest, IteratorHidesEntriesInsertedAfterItOpened) {
  MemTable mt;
  mt.Put("b", 5, "b5");
  mt.Put("d", 6, "d6");
  MemTable::Iterator it(&mt);
  it.Seek("a");
  // Lands mid-iteration, with a sequence number below the others (a writer
  // whose WAL append finished late): still invisible to this iterator.
  mt.Put("c", 1, "c1");
  mt.Put("b", 2, "b2");
  std::vector<std::pair<std::string, SequenceNumber>> seen;
  for (; it.Valid(); it.Next()) {
    seen.emplace_back(it.entry().key, it.entry().seq);
  }
  const std::vector<std::pair<std::string, SequenceNumber>> expected = {
      {"b", 5}, {"d", 6}};
  EXPECT_EQ(seen, expected);
  MemTable::Iterator fresh(&mt);
  fresh.SeekToFirst();
  size_t n = 0;
  for (; fresh.Valid(); fresh.Next()) {
    ++n;
  }
  EXPECT_EQ(n, 4u);
}

}  // namespace
}  // namespace libra::lsm
