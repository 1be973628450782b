#include "src/lsm/memtable.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace libra::lsm {
namespace {

// The entries view their bytes without pinning them: every test key and
// value here is a string literal, which outlives the memtable.
void Put(MemTable& mt, std::string_view key, SequenceNumber seq,
         std::string_view value) {
  mt.Add(Record{key, value, seq, ValueType::kPut}, nullptr);
}

void Delete(MemTable& mt, std::string_view key, SequenceNumber seq) {
  mt.Add(Record{key, "", seq, ValueType::kDelete}, nullptr);
}

TEST(MemTableTest, PutThenGet) {
  MemTable mt;
  Put(mt, "key", 1, "value");
  const auto r = mt.Get("key");
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.deleted);
  EXPECT_EQ(r.value, "value");
}

TEST(MemTableTest, MissingKeyNotFound) {
  MemTable mt;
  Put(mt, "key", 1, "value");
  EXPECT_FALSE(mt.Get("other").found);
}

TEST(MemTableTest, NewestVersionWins) {
  MemTable mt;
  Put(mt, "key", 1, "v1");
  Put(mt, "key", 2, "v2");
  Put(mt, "key", 3, "v3");
  EXPECT_EQ(mt.Get("key").value, "v3");
}

TEST(MemTableTest, SnapshotSeesOlderVersion) {
  MemTable mt;
  Put(mt, "key", 1, "v1");
  Put(mt, "key", 5, "v5");
  EXPECT_EQ(mt.Get("key", 4).value, "v1");
  EXPECT_EQ(mt.Get("key", 5).value, "v5");
  EXPECT_FALSE(mt.Get("key", 0).found);
}

TEST(MemTableTest, DeleteLeavesTombstone) {
  MemTable mt;
  Put(mt, "key", 1, "value");
  Delete(mt, "key", 2);
  const auto r = mt.Get("key");
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.deleted);
  // The old version is still visible at the old snapshot.
  EXPECT_EQ(mt.Get("key", 1).value, "value");
}

TEST(MemTableTest, MemoryUsageGrows) {
  MemTable mt;
  EXPECT_EQ(mt.ApproximateMemoryUsage(), 0u);
  const std::string value(1000, 'v');
  Put(mt, "key", 1, value);
  EXPECT_GT(mt.ApproximateMemoryUsage(), 1000u);
}

TEST(MemTableTest, IterationInInternalOrder) {
  MemTable mt;
  Put(mt, "b", 2, "b2");
  Put(mt, "a", 1, "a1");
  Put(mt, "b", 5, "b5");
  Put(mt, "c", 3, "c3");
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
  Put(mt, "ab", 1, "x");
  Put(mt, "abc", 2, "y");
  EXPECT_EQ(mt.Get("ab").value, "x");
  EXPECT_EQ(mt.Get("abc").value, "y");
  EXPECT_FALSE(mt.Get("a").found);
}

TEST(MemTableTest, SeekLandsOnNewestVersionOfFirstKeyAtOrAfter) {
  MemTable mt;
  Put(mt, "a", 1, "a1");
  Put(mt, "c", 2, "c2");
  Put(mt, "c", 7, "c7");
  Put(mt, "d", 3, "d3");
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
  Put(mt, "b", 5, "b5");
  Put(mt, "d", 6, "d6");
  MemTable::Iterator it(&mt);
  it.Seek("a");
  // Lands mid-iteration, with a sequence number below the others (a writer
  // whose WAL append finished late): still invisible to this iterator.
  Put(mt, "c", 1, "c1");
  Put(mt, "b", 2, "b2");
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
