// A cache hit allocates nothing: once every block of a table is resident,
// SstableReader::TryGet answers a bloom-negative key, and a found key whose
// value fits in std::string's inline buffer, without one heap allocation.
// And a PUT's bytes are stored once: the memtable views the WAL's copy.
// A counting global operator new watches both; it is its own binary
// because the replacement applies to the whole program.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/lsm/db.h"
#include "src/lsm/sstable.h"
#include "tests/lsm/lsm_rig.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined malloc or free with
// a new-expression at a call site.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace libra::lsm {
namespace {

using testing::LsmRig;

const iosched::IoTag kFlushTag{.tenant = 1,
                               .app = iosched::AppRequest::kPut,
                               .internal = iosched::InternalOp::kFlush};
const iosched::IoTag kGetTag{.tenant = 1, .app = iosched::AppRequest::kGet};
constexpr int kKeys = 2000;

std::string KeyOf(int i) {
  char key[32];
  std::snprintf(key, sizeof(key), "key%07d", i);
  return key;
}

// Allocations made by one synchronous lookup, which must finish in TryGet.
uint64_t AllocationsOfHit(SstableReader& reader, std::string_view key,
                          SstableReader::GetResult* out) {
  const uint64_t before = g_allocations.load();
  bool done = false;
  {
    SstableReader::Lookup lk;
    done = reader.TryGet(key, UINT64_MAX, lk);
    out->found = lk.result.found;
    out->status = lk.result.status;
    if (lk.result.found) {
      out->value.swap(lk.result.value);  // both fit inline: no allocation
    }
  }
  const uint64_t after = g_allocations.load();
  EXPECT_TRUE(done) << key;
  return after - before;
}

TEST(HitAllocTest, ResidentLookupsAllocateNothing) {
  LsmRig rig;
  const SstableOptions options{.bloom_bits_per_key = 10};
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file, options);
    for (int i = 0; i < kKeys; i += 2) {  // odd keys are absent
      builder.Add(KeyOf(i), static_cast<SequenceNumber>(i + 1),
                  ValueType::kPut, "v" + std::to_string(i));
    }
    EXPECT_TRUE((co_await builder.Finish(kFlushTag)).ok());
  }());
  BlockCache cache(0, /*cache_data=*/true);
  TableReadCounters counters;
  SstableReader reader(rig.fs, file, options, cache, iosched::TenantSlot{1},
                       &counters);

  // Warm: look up every present key, which makes filter, index and every
  // data block resident.
  const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (int i = 0; i < kKeys; ++i) {
      k.push_back(KeyOf(i));
    }
    return k;
  }();
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < kKeys; i += 2) {
      SstableReader::Lookup lk;
      if (!reader.TryGet(keys[i], UINT64_MAX, lk)) {
        co_await reader.ResumeGet(kGetTag, keys[i], UINT64_MAX, lk);
      }
      EXPECT_TRUE(lk.result.found) << keys[i];
    }
  }());
  const uint64_t reads = counters.data_block_reads;
  ASSERT_GT(reads, 1u);

  // An absent key the filter rules out.
  int negative = -1;
  for (int i = 1; i < kKeys && negative < 0; i += 2) {
    const uint64_t before = counters.bloom_negatives;
    SstableReader::Lookup lk;
    ASSERT_TRUE(reader.TryGet(keys[i], UINT64_MAX, lk));
    if (counters.bloom_negatives > before) {
      negative = i;
    }
  }
  ASSERT_GE(negative, 0);

  SstableReader::GetResult result;
  EXPECT_EQ(AllocationsOfHit(reader, keys[negative], &result), 0u);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(AllocationsOfHit(reader, keys[1234], &result), 0u);
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.value, "v1234");
  EXPECT_EQ(counters.data_block_reads, reads);  // no device read either
}

// Before the memtable viewed the WAL, each PUT byte was allocated about
// four times: the WAL frame, the log file's growth, the memtable entry and
// its skiplist node's copy.
TEST(PutAllocTest, PutsAllocateTheirValueBytesAboutOnce) {
  constexpr int kPuts = 64;
  constexpr uint64_t kValueBytes = 64 * 1024;
  LsmRig rig;
  LsmOptions options;
  options.write_buffer_bytes = 64 * kMiB;  // no flush: all stay in memory
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", options);
  ASSERT_TRUE(db.Open().ok());
  const std::string value(kValueBytes, 'v');
  const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (int i = 0; i < kPuts; ++i) {
      k.push_back(KeyOf(i));
    }
    return k;
  }();
  const uint64_t before = g_allocated_bytes.load();
  rig.RunTask([&]() -> sim::Task<void> {
    for (const std::string& key : keys) {
      EXPECT_TRUE((co_await db.Put(key, value)).ok());
    }
  }());
  const uint64_t allocated = g_allocated_bytes.load() - before;
  const uint64_t value_bytes = kPuts * kValueBytes;
  EXPECT_LT(allocated, value_bytes + value_bytes / 4)
      << "allocated " << allocated << " for " << value_bytes;
  EXPECT_EQ(db.stats().flushes, 0u);
  rig.RunTask([&]() -> sim::Task<void> {
    const LsmDb::GetResult r = co_await db.Get(keys[kPuts / 2]);
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.value, value);
  }());
}

}  // namespace
}  // namespace libra::lsm
