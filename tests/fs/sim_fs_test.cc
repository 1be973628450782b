#include "src/fs/sim_fs.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/iosched/cost_model.h"
#include "src/sim/event_loop.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::fs {
namespace {

ssd::CalibrationTable FakeTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

struct FsRig {
  sim::EventLoop loop;
  ssd::SsdDevice device{loop, ssd::Intel320Profile()};
  iosched::IoScheduler sched{
      loop, device, std::make_unique<iosched::ExactCostModel>(FakeTable())};
  SimFs fs{sched, device};
  iosched::IoTag tag{1, iosched::AppRequest::kPut, iosched::InternalOp::kNone};

  FsRig() { sched.SetAllocation(1, 10000.0); }

  // Runs a coroutine to completion on the loop.
  void RunTask(sim::Task<void> t) {
    sim::Detach(std::move(t));
    loop.Run();
  }
};

TEST(SimFsTest, CreateOpenExistsDelete) {
  FsRig rig;
  auto id = rig.fs.Create("a");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(rig.fs.Exists("a"));
  auto open = rig.fs.Open("a");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(*open, *id);
  EXPECT_TRUE(rig.fs.Delete("a").ok());
  EXPECT_FALSE(rig.fs.Exists("a"));
  EXPECT_EQ(rig.fs.Open("a").status().code(), StatusCode::kNotFound);
}

TEST(SimFsTest, DuplicateCreateFails) {
  FsRig rig;
  ASSERT_TRUE(rig.fs.Create("a").ok());
  EXPECT_EQ(rig.fs.Create("a").status().code(), StatusCode::kAlreadyExists);
}

TEST(SimFsTest, AppendThenReadRoundTrips) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, "hello ")).ok());
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, "world")).ok());
    std::string out;
    EXPECT_TRUE((co_await rig.fs.ReadAt(id, rig.tag, 0, 11, &out)).ok());
    EXPECT_EQ(out, "hello world");
    out.clear();
    EXPECT_TRUE((co_await rig.fs.ReadAt(id, rig.tag, 6, 5, &out)).ok());
    EXPECT_EQ(out, "world");
  }());
  EXPECT_EQ(rig.fs.SizeOf(id), 11u);
}

TEST(SimFsTest, ReadPastEofFails) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, "abc");
    std::string out;
    EXPECT_EQ((co_await rig.fs.ReadAt(id, rig.tag, 2, 5, &out)).code(),
              StatusCode::kOutOfRange);
  }());
}

TEST(SimFsTest, AppendCrossesExtentBoundary) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  const std::string big(3 * 1024 * 1024 + 123, 'x');  // 3MB+ spans extents
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, big)).ok());
    std::string out;
    EXPECT_TRUE(
        (co_await rig.fs.ReadAt(id, rig.tag, big.size() - 10, 10, &out)).ok());
    EXPECT_EQ(out, std::string(10, 'x'));
  }());
  EXPECT_EQ(rig.fs.SizeOf(id), big.size());
}

TEST(SimFsTest, IoIsChargedToTenant) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, std::string(64 * 1024, 'y'));
  }());
  const auto& stats = rig.sched.tracker().Stats(1);
  EXPECT_EQ(stats.write_bytes, 64u * 1024u);
  EXPECT_GT(stats.vops, 1.0);
}

TEST(SimFsTest, AppendAdvancesVirtualTime) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, std::string(4096, 'z'));
    // O_SYNC: the append returns only after the device write completes.
    EXPECT_GT(rig.loop.Now(), 0);
  }());
}

TEST(SimFsTest, DeleteFreesExtentsForReuse) {
  FsRig rig;
  const auto before = rig.fs.stats().extents_free;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, std::string(2 * 1024 * 1024, 'a'));
  }());
  EXPECT_LT(rig.fs.stats().extents_free, before);
  ASSERT_TRUE(rig.fs.Delete("f").ok());
  EXPECT_EQ(rig.fs.stats().extents_free, before);
}

TEST(SimFsTest, RenamePreservesContents) {
  FsRig rig;
  const FileId id = *rig.fs.Create("old");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, "payload");
  }());
  ASSERT_TRUE(rig.fs.Rename("old", "new").ok());
  EXPECT_FALSE(rig.fs.Exists("old"));
  ASSERT_TRUE(rig.fs.Exists("new"));
  EXPECT_EQ(*rig.fs.Open("new"), id);
  EXPECT_EQ(rig.fs.SizeOf(id), 7u);
}

TEST(SimFsTest, RenameToExistingFails) {
  FsRig rig;
  ASSERT_TRUE(rig.fs.Create("a").ok());
  ASSERT_TRUE(rig.fs.Create("b").ok());
  EXPECT_EQ(rig.fs.Rename("a", "b").code(), StatusCode::kAlreadyExists);
}

TEST(SimFsTest, ListEnumeratesFiles) {
  FsRig rig;
  ASSERT_TRUE(rig.fs.Create("x").ok());
  ASSERT_TRUE(rig.fs.Create("y").ok());
  const auto names = rig.fs.List();
  EXPECT_EQ(names.size(), 2u);
}

TEST(SimFsTest, ListFiltersByPrefix) {
  FsRig rig;
  for (const char* name :
       {"tenant_10/wal_1", "tenant_1/wal_2", "tenant_1/sst_3", "tenant_2/x",
        "tenant_1", "a"}) {
    ASSERT_TRUE(rig.fs.Create(name).ok());
  }
  EXPECT_EQ(rig.fs.List("tenant_1/"),
            (std::vector<std::string>{"tenant_1/sst_3", "tenant_1/wal_2"}));
  EXPECT_EQ(rig.fs.List("tenant_10/"),
            (std::vector<std::string>{"tenant_10/wal_1"}));
  EXPECT_TRUE(rig.fs.List("tenant_3/").empty());
  EXPECT_EQ(rig.fs.List(),
            (std::vector<std::string>{"a", "tenant_1", "tenant_1/sst_3",
                                      "tenant_1/wal_2", "tenant_10/wal_1",
                                      "tenant_2/x"}));
}

TEST(SimFsTest, PeekContentsBypassesIo) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, "secret");
  }());
  const SimTime t = rig.loop.Now();
  std::string out;
  EXPECT_TRUE(rig.fs.PeekContents(id, &out).ok());
  EXPECT_EQ(out, "secret");
  EXPECT_EQ(rig.loop.Now(), t);  // no time passed, no IO charged
}

TEST(SimFsTest, ConcurrentAppendsDoNotInterleaveBytes) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  auto writer = [&](char c) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await rig.fs.Append(id, rig.tag, std::string(100, c));
    }
  };
  sim::Detach(writer('a'));
  sim::Detach(writer('b'));
  rig.loop.Run();
  std::string all;
  ASSERT_TRUE(rig.fs.PeekContents(id, &all).ok());
  ASSERT_EQ(all.size(), 2000u);
  // Every 100-byte record is homogeneous.
  for (size_t i = 0; i < all.size(); i += 100) {
    const char c = all[i];
    EXPECT_EQ(all.substr(i, 100), std::string(100, c)) << "chunk " << i;
  }
}

// Device, scheduler and clock state after a run, for IO-identity checks.
struct IoState {
  uint64_t dev_reads = 0;
  uint64_t dev_writes = 0;
  uint64_t dev_read_bytes = 0;
  uint64_t dev_write_bytes = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  double vops = 0.0;
  uint64_t rounds = 0;
  SimTime now = 0;

  bool operator==(const IoState&) const = default;
};

IoState StateOf(const FsRig& rig) {
  const ssd::DeviceStats dev = rig.device.stats();
  const iosched::TenantIoStats& t = rig.sched.tracker().Stats(1);
  return IoState{dev.reads_completed, dev.writes_completed, dev.read_bytes,
                 dev.write_bytes,     t.read_ops,           t.write_ops,
                 t.read_bytes,        t.write_bytes,        t.vops,
                 rig.sched.rounds(),  rig.loop.Now()};
}

std::string Pattern(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('a' + (i * 7 + i / 4096) % 26);
  }
  return s;
}

// Reads ranges (one crossing an extent boundary) through ReadAt or ReadView.
IoState RunReads(bool views, std::vector<std::string>* got) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  const std::string data = Pattern(2 * 1024 * 1024 + 999);
  const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, 16}, {4096, 4096}, {1024 * 1024 - 100, 300}, {0, data.size()}};
  auto reader = [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, data)).ok());
    for (const auto& [off, len] : ranges) {
      if (views) {
        StatusOr<std::string_view> v =
            co_await rig.fs.ReadView(id, rig.tag, off, len);
        EXPECT_TRUE(v.ok());
        got->emplace_back(v.ok() ? *v : std::string_view());
      } else {
        std::string out;
        EXPECT_TRUE((co_await rig.fs.ReadAt(id, rig.tag, off, len, &out)).ok());
        got->push_back(std::move(out));
      }
    }
    if (views) {
      EXPECT_EQ((co_await rig.fs.ReadView(id, rig.tag, data.size() - 1, 2))
                    .status()
                    .code(),
                StatusCode::kOutOfRange);
    } else {
      std::string out;
      EXPECT_EQ(
          (co_await rig.fs.ReadAt(id, rig.tag, data.size() - 1, 2, &out))
              .code(),
          StatusCode::kOutOfRange);
    }
  };
  rig.RunTask(reader());
  EXPECT_EQ(got->back(), data);
  return StateOf(rig);
}

TEST(SimFsTest, ReadViewMatchesReadAtBytesAndIo) {
  std::vector<std::string> copied;
  std::vector<std::string> viewed;
  const IoState at = RunReads(/*views=*/false, &copied);
  const IoState view = RunReads(/*views=*/true, &viewed);
  EXPECT_EQ(copied, viewed);
  EXPECT_TRUE(at == view);
  EXPECT_GT(view.dev_reads, 4u);  // the extent-crossing reads split
}

struct TableWrite {
  IoState io;
  // (visible size of the table file, free extents) seen by a concurrent
  // writer after each of its appends.
  std::vector<std::pair<uint64_t, uint64_t>> seen;
  std::string contents;
};

// Writes a 3 MB+ table file as 256 KB chunked Appends or as one WriteFile,
// while a second writer appends 4 KB records to another file.
TableWrite RunTableWrite(bool whole_file) {
  FsRig rig;
  constexpr uint32_t kChunk = 256 * 1024;
  const std::string data = Pattern(3 * 1024 * 1024 + 4321);
  const FileId table = *rig.fs.Create("table");
  const FileId log = *rig.fs.Create("log");
  TableWrite out;
  auto table_writer = [&]() -> sim::Task<void> {
    if (whole_file) {
      EXPECT_TRUE(
          (co_await rig.fs.WriteFile(table, rig.tag, data, kChunk)).ok());
    } else {
      for (uint64_t off = 0; off < data.size(); off += kChunk) {
        EXPECT_TRUE((co_await rig.fs.Append(
                         table, rig.tag,
                         std::string_view(data).substr(off, kChunk)))
                        .ok());
      }
    }
  };
  auto log_writer = [&]() -> sim::Task<void> {
    for (int i = 0; i < 400; ++i) {
      co_await rig.fs.Append(log, rig.tag, std::string(4096, 'w'));
      out.seen.emplace_back(rig.fs.SizeOf(table), rig.fs.stats().extents_free);
    }
  };
  sim::Detach(table_writer());
  sim::Detach(log_writer());
  rig.loop.Run();
  EXPECT_TRUE(rig.fs.PeekContents(table, &out.contents).ok());
  out.io = StateOf(rig);
  return out;
}

TEST(SimFsTest, WriteFileIssuesTheChunkedAppendsWrites) {
  const TableWrite chunked = RunTableWrite(/*whole_file=*/false);
  const TableWrite whole = RunTableWrite(/*whole_file=*/true);
  EXPECT_EQ(whole.contents, chunked.contents);
  EXPECT_TRUE(whole.io == chunked.io);
  // Extents and visible size advance chunk by chunk, interleaved with the
  // other writer's allocations exactly as the Appends were.
  EXPECT_EQ(whole.seen, chunked.seen);
  // The table grew in steps the other writer could observe.
  EXPECT_LT(whole.seen.front().first, whole.contents.size());
}

TEST(SimFsTest, WriteFileRejectsNonEmptyFileAndZeroChunks) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  const FileId empty = *rig.fs.Create("g");
  auto writer = [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, "x")).ok());
    EXPECT_EQ((co_await rig.fs.WriteFile(id, rig.tag, "yz", 4096)).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ((co_await rig.fs.WriteFile(empty, rig.tag, "yz", 0)).code(),
              StatusCode::kInvalidArgument);
  };
  rig.RunTask(writer());
  EXPECT_EQ(rig.fs.SizeOf(id), 1u);
  EXPECT_EQ(rig.fs.SizeOf(empty), 0u);
}

}  // namespace
}  // namespace libra::fs
