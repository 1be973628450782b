#include "src/lsm/wal.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/lsm/lsm_rig.h"
#include "tests/support/fs_append.h"

namespace libra::lsm {
namespace {

using testing::LsmRig;

const iosched::IoTag kPutTag{.tenant = 1, .app = iosched::AppRequest::kPut};

TEST(WalTest, AppendAndReplay) {
  LsmRig rig;
  WriteAheadLog wal(rig.fs, "wal_1");
  ASSERT_TRUE(wal.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await wal.Append(kPutTag, "k1", 1, ValueType::kPut, "v1")).ok());
    EXPECT_TRUE(
        (co_await wal.Append(kPutTag, "k2", 2, ValueType::kDelete, "")).ok());
  }());
  std::vector<Record> records;
  std::vector<std::string> keys;  // Record holds views; copy out
  ASSERT_TRUE(wal.Replay([&](const LoggedRecord& r) {
                   records.push_back(r.record);
                   keys.emplace_back(r.record.key);
                 })
                  .ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(keys[0], "k1");
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].type, ValueType::kPut);
  EXPECT_EQ(keys[1], "k2");
  EXPECT_EQ(records[1].type, ValueType::kDelete);
}

TEST(WalTest, ReplayStopsAtTornTail) {
  LsmRig rig;
  WriteAheadLog wal(rig.fs, "wal_1");
  ASSERT_TRUE(wal.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await wal.Append(kPutTag, "k1", 1, ValueType::kPut, "v1");
    co_await wal.Append(kPutTag, "k2", 2, ValueType::kPut, "v2");
    // Simulate a torn tail: append a frame header with no payload.
    std::string torn;
    PutFixed32(&torn, 100);
    PutFixed32(&torn, 0x12345678);
    co_await fs::AppendBytes(rig.fs, *rig.fs.Open("wal_1"), kPutTag, torn);
  }());
  int count = 0;
  ASSERT_TRUE(wal.Replay([&](const LoggedRecord&) { ++count; }).ok());
  EXPECT_EQ(count, 2);
}

TEST(WalTest, AppendsChargeDirectPutIo) {
  LsmRig rig;
  WriteAheadLog wal(rig.fs, "wal_1");
  ASSERT_TRUE(wal.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await wal.Append(kPutTag, "key", 1, ValueType::kPut,
                        std::string(4096, 'v'));
  }());
  const auto& stats = rig.sched.tracker().Stats(1);
  EXPECT_EQ(stats.write_ops, 1u);
  EXPECT_GT(stats.write_bytes, 4096u);  // payload + framing
}

TEST(WalTest, RemoveDeletesFile) {
  LsmRig rig;
  WriteAheadLog wal(rig.fs, "wal_1");
  ASSERT_TRUE(wal.Open().ok());
  EXPECT_TRUE(rig.fs.Exists("wal_1"));
  EXPECT_TRUE(wal.Remove().ok());
  EXPECT_FALSE(rig.fs.Exists("wal_1"));
}

TEST(WalTest, SizeTracksAppends) {
  LsmRig rig;
  WriteAheadLog wal(rig.fs, "wal_1");
  ASSERT_TRUE(wal.Open().ok());
  const fs::FileId file = *rig.fs.Open("wal_1");
  EXPECT_EQ(rig.fs.SizeOf(file), 0u);
  rig.RunTask([&]() -> sim::Task<void> {
    co_await wal.Append(kPutTag, "k", 1, ValueType::kPut, std::string(100, 'v'));
  }());
  EXPECT_GT(rig.fs.SizeOf(file), 100u);
}

// --- group commit ---

WalOptions GroupOptions() {
  WalOptions opt;
  opt.group_commit = true;
  return opt;
}

std::string Wk(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%03d", i);
  return buf;
}

TEST(WalGroupCommitTest, ConcurrentAppendsCoalesceAndReplayInArrivalOrder) {
  LsmRig rig;
  WalCounters counters;
  WriteAheadLog wal(rig.fs, "wal_1", GroupOptions(), &counters);
  ASSERT_TRUE(wal.Open().ok());
  constexpr int kN = 8;
  auto append = [&](int i) -> sim::Task<void> {
    EXPECT_TRUE((co_await wal.Append(kPutTag, Wk(i), i + 1, ValueType::kPut,
                                     "v" + std::to_string(i)))
                    .ok());
  };
  for (int i = 0; i < kN; ++i) {
    sim::Detach(append(i));
  }
  rig.loop.Run();
  EXPECT_EQ(counters.appends, static_cast<uint64_t>(kN));
  EXPECT_EQ(counters.batched_records, static_cast<uint64_t>(kN));
  // The first append leads a batch of itself; everyone arriving during its
  // device write rides the second batch.
  EXPECT_LT(counters.batches, static_cast<uint64_t>(kN));
  EXPECT_GE(counters.max_batch_records, 2u);
  std::vector<std::string> keys;
  ASSERT_TRUE(wal.Replay([&](const LoggedRecord& r) {
                   keys.emplace_back(r.record.key);
                 })
                  .ok());
  ASSERT_EQ(keys.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(keys[i], Wk(i)) << i;  // arrival order, not batch order
  }
}

TEST(WalGroupCommitTest, RecordBoundCapsBatches) {
  LsmRig rig;
  WalOptions opt = GroupOptions();
  opt.group_max_records = 2;
  WalCounters counters;
  WriteAheadLog wal(rig.fs, "wal_1", opt, &counters);
  ASSERT_TRUE(wal.Open().ok());
  auto append = [&](int i) -> sim::Task<void> {
    co_await wal.Append(kPutTag, Wk(i), i + 1, ValueType::kPut, "v");
  };
  for (int i = 0; i < 9; ++i) {
    sim::Detach(append(i));
  }
  rig.loop.Run();
  EXPECT_EQ(counters.appends, 9u);
  EXPECT_EQ(counters.batched_records, 9u);
  EXPECT_LE(counters.max_batch_records, 2u);
  EXPECT_GE(counters.batches, 5u);  // 9 records at <= 2 per batch
  int replayed = 0;
  ASSERT_TRUE(wal.Replay([&](const LoggedRecord&) { ++replayed; }).ok());
  EXPECT_EQ(replayed, 9);
}

TEST(WalGroupCommitTest, ByteBoundStillAcceptsFirstRecord) {
  LsmRig rig;
  WalOptions opt = GroupOptions();
  opt.group_max_bytes = 1;  // below any single frame
  WalCounters counters;
  WriteAheadLog wal(rig.fs, "wal_1", opt, &counters);
  ASSERT_TRUE(wal.Open().ok());
  auto append = [&](int i) -> sim::Task<void> {
    EXPECT_TRUE((co_await wal.Append(kPutTag, Wk(i), i + 1, ValueType::kPut,
                                     std::string(64, 'v')))
                    .ok());
  };
  for (int i = 0; i < 4; ++i) {
    sim::Detach(append(i));
  }
  rig.loop.Run();
  // Every batch degenerates to one record — but nothing deadlocks and
  // nothing is dropped.
  EXPECT_EQ(counters.batches, 4u);
  EXPECT_EQ(counters.max_batch_records, 1u);
  int replayed = 0;
  ASSERT_TRUE(wal.Replay([&](const LoggedRecord&) { ++replayed; }).ok());
  EXPECT_EQ(replayed, 4);
}

TEST(WalGroupCommitTest, TornTailAfterBatchesReplaysIntactPrefix) {
  LsmRig rig;
  WalCounters counters;
  WriteAheadLog wal(rig.fs, "wal_1", GroupOptions(), &counters);
  ASSERT_TRUE(wal.Open().ok());
  auto append = [&](int i) -> sim::Task<void> {
    co_await wal.Append(kPutTag, Wk(i), i + 1, ValueType::kPut, "v");
  };
  for (int i = 0; i < 5; ++i) {
    sim::Detach(append(i));
  }
  rig.loop.Run();
  EXPECT_GT(counters.batches, 0u);
  // Crash mid-write of the next batch: a frame header lands with no
  // payload. Records are individually framed, so replay recovers exactly
  // the acknowledged prefix.
  rig.RunTask([&]() -> sim::Task<void> {
    std::string torn;
    PutFixed32(&torn, 64);
    PutFixed32(&torn, 0xdeadbeef);
    co_await fs::AppendBytes(rig.fs, *rig.fs.Open("wal_1"), kPutTag, torn);
  }());
  std::vector<SequenceNumber> seqs;
  ASSERT_TRUE(wal.Replay([&](const LoggedRecord& r) {
                   seqs.push_back(r.record.seq);
                 })
                  .ok());
  ASSERT_EQ(seqs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(seqs[i], static_cast<SequenceNumber>(i + 1));
  }
}

TEST(WalGroupCommitTest, SequentialAppendsDoNotBatch) {
  // With no concurrency there is never a sync in flight to ride: group
  // commit degenerates to one device append per record, same as the
  // legacy path.
  LsmRig rig;
  WalCounters counters;
  WriteAheadLog wal(rig.fs, "wal_1", GroupOptions(), &counters);
  ASSERT_TRUE(wal.Open().ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await wal.Append(kPutTag, Wk(i), i + 1, ValueType::kPut, "v");
    }
  }());
  EXPECT_EQ(counters.appends, 4u);
  EXPECT_EQ(counters.batches, 4u);
  EXPECT_EQ(counters.max_batch_records, 1u);
}

TEST(WalTest, ReopenExistingLogReplays) {
  LsmRig rig;
  {
    WriteAheadLog wal(rig.fs, "wal_1");
    ASSERT_TRUE(wal.Open().ok());
    rig.RunTask([&]() -> sim::Task<void> {
      co_await wal.Append(kPutTag, "k", 9, ValueType::kPut, "v");
    }());
  }
  // A second WriteAheadLog over the same file (crash recovery).
  WriteAheadLog recovered(rig.fs, "wal_1");
  ASSERT_TRUE(recovered.Open().ok());
  int count = 0;
  SequenceNumber seq = 0;
  ASSERT_TRUE(recovered.Replay([&](const LoggedRecord& r) {
                   ++count;
                   seq = r.record.seq;
                 })
                  .ok());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(seq, 9u);
}

}  // namespace
}  // namespace libra::lsm
