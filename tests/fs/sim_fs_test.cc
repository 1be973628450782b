#include "src/fs/sim_fs.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
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
  iosched::IoTag tag{.tenant = 1, .app = iosched::AppRequest::kPut};

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

// A FileId can outlive its file. Deleting a file while a WriteFile to it
// is in flight, then creating files that reuse its table slot, must leave
// the old id failing as "bad file id" on every verb, never reaching them.
TEST(SimFsTest, StaleFileIdNeverReachesAReusedSlot) {
  FsRig rig;
  const FileId old = *rig.fs.Create("old");
  Status in_flight = Status::Ok();
  // Two pieces: the writer is suspended in the first piece's device write
  // when Detach returns.
  sim::Detach([](SimFs* fs, FileId id, const iosched::IoTag* tag,
                 Status* out) -> sim::Task<void> {
    *out = co_await fs->WriteFile(id, *tag, std::string(8192, 'o'), 4096);
  }(&rig.fs, old, &rig.tag, &in_flight));
  ASSERT_TRUE(rig.fs.Delete("old").ok());
  const FileId reused = *rig.fs.Create("new");
  const FileId other = *rig.fs.Create("other");
  // The new file took the freed slot (low half of the id) under a new
  // generation (high half).
  EXPECT_EQ(reused & 0xFFFFFFFFu, old & 0xFFFFFFFFu);
  EXPECT_NE(reused, old);
  rig.loop.Run();
  EXPECT_EQ(in_flight.code(), StatusCode::kNotFound);
  EXPECT_EQ(in_flight.message(), "bad file id");
  EXPECT_EQ(rig.fs.SizeOf(reused), 0u);

  const auto is_bad_id = [](const Status& st) {
    return st.code() == StatusCode::kNotFound && st.message() == "bad file id";
  };
  rig.RunTask([&]() -> sim::Task<void> {
    const auto fill = [](char* dst) { std::memcpy(dst, "xy", 2); };
    EXPECT_TRUE(is_bad_id((co_await rig.fs.Append(old, rig.tag, 2, fill))
                              .status()));
    EXPECT_TRUE(is_bad_id((co_await rig.fs.Append(old, rig.tag, "xy"))
                              .status()));
    EXPECT_TRUE(
        is_bad_id(co_await rig.fs.WriteFile(old, rig.tag, "xy", 4096)));
    std::vector<iosched::IoShare> manifest = {{rig.tag, 2}};
    EXPECT_TRUE(is_bad_id(
        (co_await rig.fs.AppendShared(old, std::move(manifest), 2, fill))
            .status()));
    EXPECT_TRUE(
        is_bad_id((co_await rig.fs.ReadView(old, rig.tag, 0, 0)).status()));
    std::string out;
    EXPECT_TRUE(is_bad_id(co_await rig.fs.ReadAt(old, rig.tag, 0, 0, &out)));
  }());
  EXPECT_TRUE(is_bad_id(rig.fs.PeekView(old, 0, 0).status()));
  std::string peeked;
  EXPECT_TRUE(is_bad_id(rig.fs.PeekContents(old, &peeked)));
  EXPECT_EQ(rig.fs.SizeOf(old), 0u);

  // The files in the reused slots never saw any of it, and work normally.
  EXPECT_EQ(rig.fs.SizeOf(reused), 0u);
  EXPECT_EQ(rig.fs.SizeOf(other), 0u);
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.fs.Append(reused, rig.tag, "abc")).ok());
  }());
  std::string contents;
  ASSERT_TRUE(rig.fs.PeekContents(reused, &contents).ok());
  EXPECT_EQ(contents, "abc");
  EXPECT_EQ(rig.fs.stats().files, 2u);
}

TEST(SimFsTest, AppendEncodesInPlaceAndReturnsPinnedBytes) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    const auto fill = [](char* dst) { std::memcpy(dst, "abcdef", 6); };
    StatusOr<StoredBytes> first = co_await rig.fs.Append(id, rig.tag, 6, fill);
    EXPECT_TRUE(first.ok());
    EXPECT_EQ(first->bytes, "abcdef");
    StatusOr<StoredBytes> second = co_await rig.fs.Append(id, rig.tag, "gh");
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second->bytes, "gh");
    // Both appends landed in the file's first segment, one after the other.
    EXPECT_EQ(second->pin, first->pin);
    EXPECT_EQ(second->bytes.data(), first->bytes.data() + 6);
    EXPECT_EQ(first->bytes, "abcdef");
  }());
  EXPECT_EQ(rig.fs.SizeOf(id), 8u);
}

TEST(SimFsTest, PinnedSegmentSurvivesDelete) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  StoredBytes held;
  rig.RunTask([&]() -> sim::Task<void> {
    StatusOr<StoredBytes> stored = co_await rig.fs.Append(id, rig.tag, "kept");
    EXPECT_TRUE(stored.ok());
    held = *stored;
  }());
  EXPECT_EQ(held.pin.use_count(), 2);  // the file and this holder
  ASSERT_TRUE(rig.fs.Delete("f").ok());
  EXPECT_EQ(held.pin.use_count(), 1);
  EXPECT_EQ(held.bytes, "kept");
}

// Seeded differential check of the segment store against one std::string
// per file, over every operation that reads or changes file bytes. Every
// view an append returned is held with its pin and must keep showing the
// bytes it stored, across later appends, merging reads, fault hooks and
// the Delete of its file.
TEST(SimFsTest, SegmentsMatchStringModelDifferentially) {
  FsRig rig;
  constexpr int kFiles = 3;
  constexpr int kOps = 2500;
  uint64_t rng = 0x5EED;
  const auto next = [&rng](uint64_t n) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % n;
  };
  const auto bytes_of = [&next](uint64_t n) {
    std::string s(n, '\0');
    for (char& c : s) {
      c = static_cast<char>(next(256));
    }
    return s;
  };
  const auto name_of = [](int f) { return "f" + std::to_string(f); };
  std::vector<FileId> ids;
  std::vector<std::string> model(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    ids.push_back(*rig.fs.Create(name_of(f)));
  }
  const uint64_t extents_at_start = rig.fs.stats().extents_free;
  struct Held {
    StoredBytes stored;
    std::string expected;
  };
  std::vector<Held> held;
  const auto check_held = [&held](int op) {
    for (size_t i = 0; i < held.size(); ++i) {
      ASSERT_EQ(held[i].stored.bytes, held[i].expected)
          << "op " << op << " view " << i;
    }
  };
  rig.RunTask([&]() -> sim::Task<void> {
    for (int op = 0; op < kOps; ++op) {
      const int f = static_cast<int>(next(kFiles));
      std::string& m = model[f];
      // Mostly small records, sometimes one past a segment or an extent.
      const uint64_t len =
          next(10) == 0 ? 1 + next(1500 * 1024) : 1 + next(3000);
      switch (next(10)) {
        case 0:
        case 1:
        case 2: {
          const std::string data = bytes_of(len);
          StatusOr<StoredBytes> stored =
              co_await rig.fs.Append(ids[f], rig.tag, data);
          EXPECT_TRUE(stored.ok());
          EXPECT_EQ(stored->bytes, data);
          m += data;
          held.push_back({*stored, data});
          break;
        }
        case 3: {  // a group-commit-style batch of 1-3 contributors
          const std::string data = bytes_of(len);
          std::vector<iosched::IoShare> manifest;
          uint64_t left = data.size();
          while (left > 0) {
            const uint64_t part = manifest.size() == 2 ? left : 1 + next(left);
            manifest.push_back({rig.tag, static_cast<uint32_t>(part)});
            left -= part;
          }
          const auto fill = [&data](char* dst) {
            std::memcpy(dst, data.data(), data.size());
          };
          StatusOr<StoredBytes> stored = co_await rig.fs.AppendShared(
              ids[f], std::move(manifest), data.size(), fill);
          EXPECT_TRUE(stored.ok());
          EXPECT_EQ(stored->bytes, data);
          m += data;
          held.push_back({*stored, data});
          break;
        }
        case 4: {  // a whole-file write, when the file is empty
          if (!m.empty()) {
            break;
          }
          const std::string data = bytes_of(len);
          EXPECT_TRUE((co_await rig.fs.WriteFile(
                           ids[f], rig.tag, data,
                           static_cast<uint32_t>(1 + next(256 * 1024))))
                          .ok());
          m = data;
          break;
        }
        case 5: {  // a read, often across segments (which merges them)
          if (m.empty()) {
            break;
          }
          const uint64_t off = next(m.size());
          const uint64_t n = 1 + next(m.size() - off);
          if (next(2) == 0) {
            StatusOr<std::string_view> v =
                co_await rig.fs.ReadView(ids[f], rig.tag, off, n);
            EXPECT_TRUE(v.ok());
            EXPECT_EQ(*v, std::string_view(m).substr(off, n)) << "op " << op;
          } else {
            std::string out;
            EXPECT_TRUE(
                (co_await rig.fs.ReadAt(ids[f], rig.tag, off, n, &out)).ok());
            EXPECT_EQ(out, m.substr(off, n)) << "op " << op;
          }
          break;
        }
        case 6: {  // a host-side pinned peek
          if (m.empty()) {
            break;
          }
          const uint64_t off = next(m.size());
          const uint64_t n = 1 + next(m.size() - off);
          StatusOr<StoredBytes> v = rig.fs.PeekView(ids[f], off, n);
          EXPECT_TRUE(v.ok());
          EXPECT_EQ(v->bytes, std::string_view(m).substr(off, n));
          held.push_back({*v, m.substr(off, n)});
          break;
        }
        case 7: {
          const uint64_t size = next(m.size() + 16);
          EXPECT_TRUE(rig.fs.Truncate(name_of(f), size).ok());
          if (size < m.size()) {
            m.resize(size);
          }
          break;
        }
        case 8: {
          if (m.empty()) {
            break;
          }
          const uint64_t off = next(m.size());
          const uint8_t mask = static_cast<uint8_t>(1 + next(255));
          EXPECT_TRUE(rig.fs.CorruptByte(name_of(f), off, mask).ok());
          m[off] = static_cast<char>(static_cast<uint8_t>(m[off]) ^ mask);
          break;
        }
        case 9: {
          if (next(4) != 0) {
            break;  // deletes are rarer, so files grow across segments
          }
          EXPECT_TRUE(rig.fs.Delete(name_of(f)).ok());
          ids[f] = *rig.fs.Create(name_of(f));
          m.clear();
          break;
        }
      }
      EXPECT_EQ(rig.fs.SizeOf(ids[f]), m.size()) << "op " << op;
      if (op % 50 == 0) {
        std::string all;
        EXPECT_TRUE(rig.fs.PeekContents(ids[f], &all).ok());
        EXPECT_EQ(all, m) << "op " << op;
        check_held(op);
      }
    }
  }());
  check_held(kOps);
  for (int f = 0; f < kFiles; ++f) {
    std::string all;
    EXPECT_TRUE(rig.fs.PeekContents(ids[f], &all).ok());
    EXPECT_EQ(all, model[f]);
    EXPECT_TRUE(rig.fs.Delete(name_of(f)).ok());
  }
  check_held(kOps);
  EXPECT_EQ(rig.fs.stats().extents_free, extents_at_start);
}

}  // namespace
}  // namespace libra::fs
