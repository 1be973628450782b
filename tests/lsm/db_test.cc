#include "src/lsm/db.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "tests/lsm/lsm_rig.h"

namespace libra::lsm {
namespace {

using testing::LsmRig;

LsmOptions SmallOptions() {
  LsmOptions opt;
  opt.write_buffer_bytes = 64 * 1024;  // tiny buffers: fast flush/compact
  opt.max_bytes_level1 = 256 * 1024;
  opt.target_file_bytes = 64 * 1024;
  return opt;
}

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

TEST(LsmDbTest, PutGetRoundTrip) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await db.Put("hello", "world")).ok());
    auto r = co_await db.Get("hello");
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.value, "world");
  }());
}

TEST(LsmDbTest, GetMissingIsNotFound) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await db.Get("ghost");
    EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  }());
}

TEST(LsmDbTest, OverwriteReturnsLatest) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await db.Put("k", "v1");
    co_await db.Put("k", "v2");
    auto r = co_await db.Get("k");
    EXPECT_EQ(r.value, "v2");
  }());
}

TEST(LsmDbTest, DeleteHidesKey) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await db.Put("k", "v");
    co_await db.Delete("k");
    auto r = co_await db.Get("k");
    EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  }());
}

TEST(LsmDbTest, FlushMovesDataToL0AndDataSurvives) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    // Enough data to overflow the 64KB write buffer several times.
    for (int i = 0; i < 200; ++i) {
      co_await db.Put(Key(i), std::string(1024, 'v'));
    }
    co_await db.WaitIdle();
    // All keys remain readable from tables.
    for (int i = 0; i < 200; i += 13) {
      auto r = co_await db.Get(Key(i));
      EXPECT_TRUE(r.status.ok()) << i;
      EXPECT_EQ(r.value.size(), 1024u) << i;
    }
  }());
  EXPECT_GT(db.stats().flushes, 0u);
}

TEST(LsmDbTest, CompactionReducesL0AndPreservesData) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 400; ++i) {
        co_await db.Put(Key(i), std::string(512, 'a' + round));
      }
    }
    co_await db.WaitIdle();
    EXPECT_LT(db.stats().files_per_level[0], 5);
    for (int i = 0; i < 400; i += 37) {
      auto r = co_await db.Get(Key(i));
      EXPECT_TRUE(r.status.ok()) << i;
      EXPECT_EQ(r.value, std::string(512, 'a' + 3)) << i;
    }
  }());
  EXPECT_GT(db.stats().compactions, 0u);
  EXPECT_GT(db.stats().files_per_level[1], 0);
}

TEST(LsmDbTest, DeletedKeysStayDeletedThroughCompaction) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 300; ++i) {
      co_await db.Put(Key(i), std::string(512, 'v'));
    }
    for (int i = 0; i < 300; i += 2) {
      co_await db.Delete(Key(i));
    }
    // Churn to force flushes + compactions over the tombstones.
    for (int i = 300; i < 600; ++i) {
      co_await db.Put(Key(i), std::string(512, 'w'));
    }
    co_await db.WaitIdle();
    for (int i = 0; i < 300; i += 50) {
      auto even = co_await db.Get(Key(i));
      EXPECT_EQ(even.status.code(), StatusCode::kNotFound) << i;
      auto odd = co_await db.Get(Key(i + 1));
      EXPECT_TRUE(odd.status.ok()) << i + 1;
    }
  }());
}

TEST(LsmDbTest, RandomizedAgainstReferenceMap) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  std::map<std::string, std::string> reference;
  Rng rng(404);
  rig.RunTask([&]() -> sim::Task<void> {
    for (int op = 0; op < 3000; ++op) {
      EXPECT_EQ(db.DebugCheckInvariants(), "") << "op " << op;
      const std::string key = Key(static_cast<int>(rng.NextU64(500)));
      const double dice = rng.NextDouble();
      if (dice < 0.55) {
        const std::string value =
            "v" + std::to_string(op) + std::string(rng.NextU64(900), 'x');
        co_await db.Put(key, value);
        reference[key] = value;
      } else if (dice < 0.7) {
        co_await db.Delete(key);
        reference.erase(key);
      } else {
        auto r = co_await db.Get(key);
        const auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(r.status.code(), StatusCode::kNotFound) << key;
        } else {
          EXPECT_TRUE(r.status.ok()) << key;
          EXPECT_EQ(r.value, it->second) << key;
        }
      }
    }
    co_await db.WaitIdle();
    // Full verification sweep.
    for (const auto& [key, value] : reference) {
      auto r = co_await db.Get(key);
      EXPECT_TRUE(r.status.ok()) << key;
      EXPECT_EQ(r.value, value) << key;
    }
  }());
}

TEST(LsmDbTest, ConcurrentWritersAllLand) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  auto writer = [&](int base) -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(
          (co_await db.Put(Key(base + i), std::string(256, 'c'))).ok());
    }
  };
  for (int w = 0; w < 8; ++w) {
    sim::Detach(writer(w * 100));
  }
  rig.loop.Run();
  rig.RunTask([&]() -> sim::Task<void> {
    co_await db.WaitIdle();
    for (int w = 0; w < 8; ++w) {
      for (int i = 0; i < 50; i += 10) {
        auto r = co_await db.Get(Key(w * 100 + i));
        EXPECT_TRUE(r.status.ok()) << w << "/" << i;
      }
    }
  }());
}

TEST(LsmDbTest, WalRecoveryRestoresMemtable) {
  LsmRig rig;
  {
    LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
    ASSERT_TRUE(db.Open().ok());
    rig.RunTask([&]() -> sim::Task<void> {
      co_await db.Put("durable", "yes");
      co_await db.WaitIdle();
    }());
    // "Crash": destroy the DB without flushing the memtable. The WAL file
    // remains in SimFs.
  }
  LsmDb db2(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db2.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await db2.Get("durable");
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.value, "yes");
  }());
}

TEST(LsmDbTest, FlushAndCompactIoTaggedAsInternal) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 300; ++i) {
        co_await db.Put(Key(i), std::string(512, 'z'));
        // The serving layer records app-request execution (the node does
        // this in production; tests stand in for it).
        rig.sched.tracker().RecordAppRequest(1, iosched::AppRequest::kPut, 512);
      }
    }
    co_await db.WaitIdle();
  }());
  rig.sched.tracker().Roll();
  const auto put_profile =
      rig.sched.tracker().Profile(1, iosched::AppRequest::kPut);
  // Direct PUT cost plus attributed FLUSH and COMPACT components.
  EXPECT_GT(put_profile.direct, 0.0);
  EXPECT_GT(put_profile.indirect[static_cast<int>(iosched::InternalOp::kFlush)],
            0.0);
  EXPECT_GT(
      put_profile.indirect[static_cast<int>(iosched::InternalOp::kCompact)],
      0.0);
}

LsmOptions GroupCommitOptions() {
  LsmOptions opt = SmallOptions();
  opt.wal_group_commit = true;
  return opt;
}

TEST(LsmDbTest, GroupCommitConcurrentPutsSurviveCrashRecovery) {
  LsmRig rig;
  constexpr int kWriters = 16;
  {
    LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", GroupCommitOptions());
    ASSERT_TRUE(db.Open().ok());
    auto writer = [&](int i) -> sim::Task<void> {
      EXPECT_TRUE((co_await db.Put(Key(i), "v" + std::to_string(i))).ok());
    };
    for (int i = 0; i < kWriters; ++i) {
      sim::Detach(writer(i));
    }
    rig.loop.Run();
    const LsmStats stats = db.stats();
    EXPECT_EQ(stats.wal_appends, static_cast<uint64_t>(kWriters));
    EXPECT_EQ(stats.wal_batched_records, static_cast<uint64_t>(kWriters));
    EXPECT_LT(stats.wal_batches, static_cast<uint64_t>(kWriters));
    EXPECT_GE(stats.wal_max_batch_records, 2u);
    // "Crash" with everything still in the memtable: recovery must come
    // from the group-committed WAL alone.
  }
  LsmDb db2(rig.loop, rig.fs, rig.sched, 1, "t1", GroupCommitOptions());
  ASSERT_TRUE(db2.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < kWriters; ++i) {
      auto r = co_await db2.Get(Key(i));
      EXPECT_TRUE(r.status.ok()) << i;
      EXPECT_EQ(r.value, "v" + std::to_string(i)) << i;
    }
  }());
}

// Every key's GET result and one full scan, to compare a DB's state.
std::vector<std::string> ReadAll(LsmRig& rig, LsmDb& db, int keys) {
  std::vector<std::string> seen;
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < keys; ++i) {
      auto r = co_await db.Get(Key(i));
      seen.push_back(r.status.ok() ? Key(i) + "=" + r.value
                                   : Key(i) + " " + r.status.ToString());
    }
    auto scan = co_await db.Scan("", "", 0);
    EXPECT_TRUE(scan.status.ok());
    for (const auto& [k, v] : scan.entries) {
      seen.push_back("scan " + k + "=" + v);
    }
  }());
  return seen;
}

// Flips every byte of every WAL file under `prefix`, then tears each one's
// second half off. Returns the bytes it flipped.
uint64_t DamageWals(LsmRig& rig, const std::string& prefix) {
  uint64_t flipped = 0;
  for (const std::string& name : rig.fs.List(prefix + "/wal_")) {
    const uint64_t size = rig.fs.SizeOf(*rig.fs.Open(name));
    for (uint64_t off = 0; off < size; ++off) {
      EXPECT_TRUE(rig.fs.CorruptByte(name, off, 0xFF).ok());
    }
    EXPECT_TRUE(rig.fs.Truncate(name, size / 2).ok());
    flipped += size;
  }
  return flipped;
}

// The memtable views the bytes its WAL stored, so a fault injected into a
// log (flipped bits, a torn tail) must not reach a live memtable: the
// filesystem copies a segment someone pins before changing it. Covers
// records inserted by plain appends, by group commit and by replay.
TEST(LsmDbTest, WalFaultsLeaveLiveMemtableUnchanged) {
  constexpr int kKeys = 48;
  for (const bool group_commit : {false, true}) {
    SCOPED_TRACE(group_commit ? "group commit" : "one append per put");
    LsmRig rig;
    const LsmOptions opt =
        group_commit ? GroupCommitOptions() : SmallOptions();
    // Big enough for the log to span several segments, small enough to
    // stay in the 64 KiB memtable.
    const auto value_of = [](int i) {
      return std::string(200 + i, static_cast<char>('a' + i % 26));
    };
    const auto fill = [&](LsmDb& db) {
      auto writer = [&](int i) -> sim::Task<void> {
        const std::string value = value_of(i);
        EXPECT_TRUE((co_await db.Put(Key(i), value)).ok());
        if (i % 7 == 0) {
          EXPECT_TRUE((co_await db.Delete(Key(i))).ok());
        }
      };
      for (int i = 0; i < kKeys; ++i) {
        sim::Detach(writer(i));
      }
      rig.loop.Run();
      EXPECT_EQ(db.stats().flushes, 0u);
    };
    {
      LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", opt);
      ASSERT_TRUE(db.Open().ok());
      fill(db);
      const std::vector<std::string> before = ReadAll(rig, db, kKeys);
      EXPECT_GT(DamageWals(rig, "t1"), 8u * 1024);  // past the first segment
      EXPECT_EQ(ReadAll(rig, db, kKeys), before);
    }
    {
      LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t2", opt);
      ASSERT_TRUE(db.Open().ok());
      fill(db);
    }
    // A successor replays the log: its memtable views the recovered file.
    LsmDb recovered(rig.loop, rig.fs, rig.sched, 1, "t2", opt);
    ASSERT_TRUE(recovered.Open().ok());
    EXPECT_EQ(recovered.stats().recovered_records,
              static_cast<uint64_t>(kKeys + (kKeys + 6) / 7));
    const std::vector<std::string> before = ReadAll(rig, recovered, kKeys);
    EXPECT_EQ(before.size(), static_cast<size_t>(kKeys + kKeys - 7));
    EXPECT_GT(DamageWals(rig, "t2"), 8u * 1024);
    EXPECT_EQ(ReadAll(rig, recovered, kKeys), before);
  }
}

TEST(LsmDbTest, GroupCommitReducesWalDeviceWrites) {
  // Same 16 concurrent PUTs against two DBs that differ only in the
  // group-commit knob. Values are small enough that nothing flushes, so
  // every device write IOP is WAL traffic. Device IOPs are the lifecycle
  // stats' op count (a batch is one op, billed to its leader); the
  // tracker's write_ops counts per-contributor slices and stays 16 either
  // way — that is the cost-attribution invariant, not the IOP count.
  auto run = [](bool batched) -> uint64_t {
    LsmRig rig;
    LsmOptions opt = batched ? GroupCommitOptions() : SmallOptions();
    LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", opt);
    EXPECT_TRUE(db.Open().ok());
    auto writer = [&](int i) -> sim::Task<void> {
      co_await db.Put(Key(i), std::string(64, 'v'));
    };
    for (int i = 0; i < 16; ++i) {
      sim::Detach(writer(i));
    }
    rig.loop.Run();
    EXPECT_EQ(db.stats().flushes, 0u);
    EXPECT_EQ(rig.sched.tracker().Stats(1).write_ops, 16u);
    const iosched::TenantLifecycleStats* lc = rig.sched.lifecycle(1);
    EXPECT_NE(lc, nullptr);
    const obs::IoClassStats* cls =
        lc->of(iosched::AppRequest::kPut, iosched::InternalOp::kNone);
    EXPECT_NE(cls, nullptr);
    return cls->ops;
  };
  const uint64_t unbatched_ops = run(false);
  const uint64_t batched_ops = run(true);
  EXPECT_EQ(unbatched_ops, 16u);  // one synced WAL IOP per PUT
  // ISSUE acceptance: >= 1.5x fewer WAL device IOPs under concurrency (in
  // practice the 16 writers collapse into 2 batches).
  EXPECT_GE(static_cast<double>(unbatched_ops),
            1.5 * static_cast<double>(batched_ops));
}

TEST(LsmDbTest, GroupCommitSplitCostLandsOnDirectPutClass) {
  // Cost conservation: the batched WAL IOP's cost is split back onto the
  // contributors' (tenant, PUT, direct) class — it does not leak onto GET
  // or internal-op classes, and the shared-IO rollup sees the slices.
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", GroupCommitOptions());
  ASSERT_TRUE(db.Open().ok());
  auto writer = [&](int i) -> sim::Task<void> {
    co_await db.Put(Key(i), std::string(64, 'v'));
  };
  for (int i = 0; i < 8; ++i) {
    sim::Detach(writer(i));
  }
  rig.loop.Run();
  ASSERT_EQ(db.stats().flushes, 0u);
  const auto& tr = rig.sched.tracker();
  EXPECT_GT(tr.shared_io_shares(), 0u);
  const double put_direct = tr.VopsBy(1, iosched::AppRequest::kPut,
                                      iosched::InternalOp::kNone,
                                      ssd::IoType::kWrite);
  EXPECT_GT(put_direct, 0.0);
  // All write VOPs the tenant consumed are on that one class.
  EXPECT_DOUBLE_EQ(put_direct, tr.Stats(1).vops);
  EXPECT_EQ(tr.VopsBy(1, iosched::AppRequest::kPut,
                      iosched::InternalOp::kFlush, ssd::IoType::kWrite),
            0.0);
  EXPECT_EQ(tr.VopsBy(1, iosched::AppRequest::kGet, iosched::InternalOp::kNone,
                      ssd::IoType::kRead),
            0.0);
}

TEST(LsmDbTest, GroupCommitHeavyChurnKeepsInvariantsAndData) {
  // Group commit under flush/compaction churn: concurrent writers push
  // enough data through tiny buffers to force background work while
  // batches form.
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", GroupCommitOptions());
  ASSERT_TRUE(db.Open().ok());
  auto writer = [&](int base) -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(
          (co_await db.Put(Key(base + i), std::string(512, 'g'))).ok());
    }
  };
  for (int w = 0; w < 8; ++w) {
    sim::Detach(writer(w * 100));
  }
  rig.loop.Run();
  rig.RunTask([&]() -> sim::Task<void> {
    co_await db.WaitIdle();
    for (int w = 0; w < 8; ++w) {
      for (int i = 0; i < 50; i += 7) {
        auto r = co_await db.Get(Key(w * 100 + i));
        EXPECT_TRUE(r.status.ok()) << w << "/" << i;
      }
    }
  }());
  EXPECT_EQ(db.DebugCheckInvariants(), "");
  EXPECT_GT(db.stats().flushes, 0u);
  EXPECT_GT(db.stats().wal_batches, 0u);
  EXPECT_EQ(db.stats().wal_batched_records, db.stats().wal_appends);
}

TEST(LsmDbTest, UniformPutsWidenGetLookups) {
  // Paper §3.1/Fig. 2: uniform-keyspace PUT churn increases the number of
  // eligible files a GET must probe.
  LsmRig rig;
  LsmOptions opt = SmallOptions();
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", opt);
  ASSERT_TRUE(db.Open().ok());
  Rng rng(7);
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 2000; ++i) {
      co_await db.Put(Key(static_cast<int>(rng.NextU64(5000))),
                      std::string(512, 'u'));
    }
    // Probe GETs while files are spread over levels.
    const uint64_t probes_before = db.stats().tables_probed;
    const uint64_t gets_before = db.stats().gets;
    for (int i = 0; i < 100; ++i) {
      co_await db.Get(Key(static_cast<int>(rng.NextU64(5000))));
    }
    const double per_get =
        static_cast<double>(db.stats().tables_probed - probes_before) /
        static_cast<double>(db.stats().gets - gets_before);
    EXPECT_GT(per_get, 1.0);  // more than one file probed per GET on average
    co_await db.WaitIdle();
  }());
}

// --- range scans (merge-iterator across memtable + SSTables) ---

TEST(LsmDbTest, ScanMergesMemtableAndTables) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    // Flushed generation...
    for (int i = 0; i < 200; ++i) {
      co_await db.Put(Key(i), std::string(1024, 'v'));
    }
    co_await db.WaitIdle();
    // ...plus fresh memtable entries interleaved into the same range.
    for (int i = 200; i < 220; ++i) {
      co_await db.Put(Key(i), "mem");
    }
    auto r = co_await db.Scan(Key(190), Key(210), 0);
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.entries.size(), 20u);
    for (size_t i = 0; i < r.entries.size() && i < 20; ++i) {
      EXPECT_EQ(r.entries[i].first, Key(190 + static_cast<int>(i)));
      EXPECT_EQ(r.entries[i].second,
                190 + static_cast<int>(i) < 200 ? std::string(1024, 'v')
                                                : std::string("mem"));
    }
  }());
  EXPECT_GT(db.stats().scans, 0u);
  EXPECT_EQ(db.stats().scan_keys, 20u);
}

TEST(LsmDbTest, ScanTombstoneShadowsLowerLevel) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      co_await db.Put(Key(i), std::string(1024, 'v'));
    }
    co_await db.WaitIdle();  // values now live in flushed tables
    // Tombstones land in the memtable, above the flushed values.
    for (int i = 100; i < 110; ++i) {
      co_await db.Delete(Key(i));
    }
    auto r = co_await db.Scan(Key(95), Key(115), 0);
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.entries.size(), 10u);  // 95..99 and 110..114
    for (const auto& [k, v] : r.entries) {
      EXPECT_TRUE(k < Key(100) || k >= Key(110)) << k;
    }
  }());
}

TEST(LsmDbTest, ScanDuplicateKeysAcrossLevelsNewestWins) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    // Three generations of the same key range, separated by flushes, so the
    // same user keys exist in multiple tables (and the memtable).
    for (int gen = 0; gen < 3; ++gen) {
      for (int i = 0; i < 100; ++i) {
        co_await db.Put(Key(i), "gen" + std::to_string(gen) +
                                    std::string(512, 'x'));
      }
      if (gen < 2) {
        co_await db.WaitIdle();
      }
    }
    auto r = co_await db.Scan(Key(0), Key(100), 0);
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.entries.size(), 100u);  // each key exactly once
    for (const auto& [k, v] : r.entries) {
      EXPECT_EQ(v.substr(0, 4), "gen2") << k;
    }
    co_await db.WaitIdle();
  }());
}

TEST(LsmDbTest, ScanEmptyRange) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      co_await db.Put(Key(i), "v");
    }
    // Range entirely above the population.
    auto high = co_await db.Scan(Key(1000), Key(2000), 0);
    EXPECT_TRUE(high.status.ok());
    EXPECT_TRUE(high.entries.empty());
    // Degenerate [x, x) range.
    auto empty = co_await db.Scan(Key(10), Key(10), 0);
    EXPECT_TRUE(empty.status.ok());
    EXPECT_TRUE(empty.entries.empty());
  }());
}

TEST(LsmDbTest, ScanLimitTruncatesMidSstable) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 300; ++i) {
      co_await db.Put(Key(i), std::string(1024, 'v'));
    }
    co_await db.WaitIdle();
    auto r = co_await db.Scan(Key(0), std::string(), 7);
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.entries.size(), 7u);
    for (size_t i = 0; i < r.entries.size(); ++i) {
      EXPECT_EQ(r.entries[i].first, Key(static_cast<int>(i)));
    }
    // A truncated scan reads only the blocks it touched, not the full
    // range: its byte footprint stays well under the whole population.
    EXPECT_LT(db.stats().scan_bytes, 300u * 1024u / 2);
  }());
}

// --- size-tiered compaction policy ---

TEST(LsmDbTest, SizeTieredCompactionPreservesDataAndInvariants) {
  LsmRig rig;
  LsmOptions opt = SmallOptions();
  opt.compaction_policy = CompactionPolicy::kSizeTiered;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", opt);
  ASSERT_TRUE(db.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 400; ++i) {
        co_await db.Put(Key(i), std::string(512, 'a' + round));
      }
    }
    co_await db.WaitIdle();
    for (int i = 0; i < 400; i += 37) {
      auto r = co_await db.Get(Key(i));
      EXPECT_TRUE(r.status.ok()) << i;
      EXPECT_EQ(r.value, std::string(512, 'a' + 3)) << i;
    }
    auto scan = co_await db.Scan(Key(0), std::string(), 0);
    EXPECT_TRUE(scan.status.ok());
    EXPECT_EQ(scan.entries.size(), 400u);
  }());
  EXPECT_GT(db.stats().compactions, 0u);
  EXPECT_EQ(db.DebugCheckInvariants(), "");
}

TEST(LsmDbTest, SizeTieredRandomizedAgainstReferenceMap) {
  LsmRig rig;
  LsmOptions opt = SmallOptions();
  opt.compaction_policy = CompactionPolicy::kSizeTiered;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", opt);
  ASSERT_TRUE(db.Open().ok());
  std::map<std::string, std::string> reference;
  Rng rng(42);
  rig.RunTask([&]() -> sim::Task<void> {
    for (int op = 0; op < 2000; ++op) {
      const std::string key = Key(static_cast<int>(rng.NextU64(300)));
      if (rng.NextU64(100) < 25 && reference.count(key)) {
        co_await db.Delete(key);
        reference.erase(key);
      } else {
        const std::string value =
            "v" + std::to_string(op) + std::string(rng.NextU64(700), 'z');
        co_await db.Put(key, value);
        reference[key] = value;
      }
    }
    co_await db.WaitIdle();
    // Point lookups match the reference...
    for (int i = 0; i < 300; ++i) {
      auto r = co_await db.Get(Key(i));
      const auto it = reference.find(Key(i));
      if (it == reference.end()) {
        EXPECT_EQ(r.status.code(), StatusCode::kNotFound) << Key(i);
      } else {
        EXPECT_TRUE(r.status.ok()) << Key(i);
        EXPECT_EQ(r.value, it->second) << Key(i);
      }
    }
    // ...and a full scan reproduces it exactly, in order.
    auto scan = co_await db.Scan(std::string(), std::string(), 0);
    EXPECT_TRUE(scan.status.ok());
    EXPECT_EQ(scan.entries.size(), reference.size());
    auto rit = reference.begin();
    for (const auto& [k, v] : scan.entries) {
      if (rit == reference.end()) {
        break;
      }
      EXPECT_EQ(k, rit->first);
      EXPECT_EQ(v, rit->second);
      ++rit;
    }
  }());
  EXPECT_EQ(db.DebugCheckInvariants(), "");
}

// Scans race the background machinery: writers keep sealing, flushing and
// compacting tiny memtables while Scans (with limits) and ScanLives sit
// suspended on table IO. Every result must equal the model as it stood
// when that scan started. A memtable freed under a suspended scan shows as
// a use-after-free under ASan; an insert leaking into a scan that started
// before it landed shows as a mismatch.
TEST(LsmDbTest, ScansPinMemtablesAcrossSealFlushAndCompaction) {
  LsmRig rig;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "t1", SmallOptions());
  ASSERT_TRUE(db.Open().ok());
  constexpr int kKeys = 400;
  constexpr int kWriters = 4;
  using Entries = std::vector<std::pair<std::string, std::string>>;
  std::map<std::string, std::string> model;
  // Every key starts in a table, so the writers' memtable tombstones
  // shadow table entries.
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < kKeys; ++i) {
      const std::string value = "base" + std::to_string(i) + std::string(900, 'b');
      EXPECT_TRUE((co_await db.Put(Key(i), value)).ok());
      model[Key(i)] = value;
    }
    co_await db.WaitIdle();
  }());
  ASSERT_GT(db.stats().flushes, 0u);

  int writers_left = kWriters;
  // Writer w owns the keys congruent to w, so each key's model updates
  // follow its sequence order.
  auto writer = [&](int w) -> sim::Task<void> {
    Rng rng(100 + static_cast<uint64_t>(w));
    for (int op = 0; op < 300; ++op) {
      const std::string key =
          Key(w + kWriters * static_cast<int>(rng.NextU64(kKeys / kWriters)));
      if (rng.NextU64(100) < 30) {
        EXPECT_TRUE((co_await db.Delete(key)).ok());
        model.erase(key);
      } else {
        const std::string value =
            "w" + std::to_string(op) + std::string(rng.NextU64(1200), 'w');
        EXPECT_TRUE((co_await db.Put(key, value)).ok());
        model[key] = value;
      }
    }
    --writers_left;
  };
  int scans = 0;
  int scans_across_flush = 0;
  auto scanner = [&](int s) -> sim::Task<void> {
    Rng rng(200 + static_cast<uint64_t>(s));
    while (writers_left > 0) {
      const int lo = static_cast<int>(rng.NextU64(kKeys));
      const std::string start = Key(lo);
      const std::string end =
          rng.NextU64(2) == 0
              ? std::string()
              : Key(lo + 1 + static_cast<int>(rng.NextU64(80)));
      const size_t limit = rng.NextU64(40);  // 0 = unbounded
      Entries expected;
      for (auto it = model.lower_bound(start);
           it != model.end() && (end.empty() || it->first < end) &&
           (limit == 0 || expected.size() < limit);
           ++it) {
        expected.push_back(*it);
      }
      const uint64_t flushes = db.stats().flushes;
      const LsmDb::ScanResult r = co_await db.Scan(start, end, limit);
      EXPECT_TRUE(r.status.ok());
      EXPECT_EQ(r.entries, expected)
          << "scan [" << start << ", " << end << ") limit " << limit;
      ++scans;
      scans_across_flush += db.stats().flushes != flushes ? 1 : 0;
    }
  };
  int live_scans = 0;
  auto live_scanner = [&]() -> sim::Task<void> {
    const iosched::IoTag tag{.tenant = 1, .app = iosched::AppRequest::kGet};
    while (writers_left > 0) {
      const Entries expected(model.begin(), model.end());
      Entries got;
      EXPECT_TRUE((co_await db.ScanLive(tag, [&](std::string_view k,
                                                 std::string_view v) {
                    got.emplace_back(std::string(k), std::string(v));
                  })).ok());
      EXPECT_EQ(got, expected);
      ++live_scans;
    }
  };
  for (int w = 0; w < kWriters; ++w) {
    sim::Detach(writer(w));
  }
  for (int s = 0; s < 3; ++s) {
    sim::Detach(scanner(s));
  }
  sim::Detach(live_scanner());
  rig.loop.Run();
  rig.RunTask(db.WaitIdle());
  EXPECT_GT(db.stats().compactions, 0u);
  EXPECT_GT(scans_across_flush, 0) << "of " << scans << " scans";
  EXPECT_GT(live_scans, 1);
  EXPECT_EQ(db.DebugCheckInvariants(), "");
}

}  // namespace
}  // namespace libra::lsm
