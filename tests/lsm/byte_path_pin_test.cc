// Pins the simulated IO of the LSM write and compaction path. A seeded
// single-tenant run drives flushes plus leveled or size-tiered compactions,
// then checks the bytes of every live table (CRC32C via PeekContents), the
// device's read/write op and byte counts, and the final virtual time against
// constants captured from the engine before its host-side byte path was
// reworked. Any change to how table bytes are buffered, handed to SimFs, or
// read back for compaction must leave all of them exactly where they are.
//
// The traced variants run the same workload with span collection on (every
// write under its own root trace) and pin a CRC32C over every FLUSH and
// COMPACT span's ids, parent, links, bytes and start/end, so any change to
// how the background jobs pick, link and time their work shows up too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/lsm/db.h"
#include "src/lsm/format.h"
#include "src/obs/span.h"
#include "tests/lsm/lsm_rig.h"

namespace libra::lsm {
namespace {

using testing::LsmRig;

struct PinResult {
  std::string tables;  // "name:crc32c:size" per live table, by name
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  SimTime now = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  // Traced runs only: FLUSH/COMPACT span count and CRC32C of their fields.
  uint64_t job_spans = 0;
  uint32_t job_span_crc = 0;
};

std::string PinKey(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pin%06llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// Appends the fields of one FLUSH/COMPACT span that the background jobs
// decide: identity, parent, sampled links, output bytes and timing.
void AppendJobSpan(const obs::SpanRecord& s, std::string* out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%d:%llx:%llx:%llx:%llu:%lld:%lld:%u:%u",
                static_cast<int>(s.kind),
                static_cast<unsigned long long>(s.trace_id),
                static_cast<unsigned long long>(s.span_id),
                static_cast<unsigned long long>(s.parent_span),
                static_cast<unsigned long long>(s.bytes),
                static_cast<long long>(s.start_ns),
                static_cast<long long>(s.end_ns), s.links.total,
                s.links.count);
  *out += buf;
  for (uint32_t i = 0; i < s.links.count; ++i) {
    std::snprintf(buf, sizeof(buf), ":%llx/%llx",
                  static_cast<unsigned long long>(s.links.items[i].trace_id),
                  static_cast<unsigned long long>(s.links.items[i].span_id));
    *out += buf;
  }
  *out += '\n';
}

PinResult RunPinned(CompactionPolicy policy, uint32_t bloom_bits,
                    int num_levels = 5, bool traced = false) {
  iosched::SchedulerOptions sched_opt;
  sched_opt.span_capacity = traced ? 1 << 16 : 0;
  LsmRig rig(sched_opt);
  obs::SpanCollector* spans = rig.sched.spans();
  LsmOptions opt;
  opt.write_buffer_bytes = 256 * 1024;
  opt.write_chunk_bytes = 64 * 1024;
  opt.target_file_bytes = 1536 * 1024;  // leveled outputs cross extents
  opt.max_bytes_level1 = 1024 * 1024;
  opt.bloom_bits_per_key = bloom_bits;
  opt.compaction_policy = policy;
  opt.tier_compaction_trigger = 3;
  opt.num_levels = num_levels;
  LsmDb db(rig.loop, rig.fs, rig.sched, 1, "pin", opt);
  EXPECT_TRUE(db.Open().ok());

  std::map<std::string, std::string> model;
  rig.RunTask([&]() -> sim::Task<void> {
    Rng rng(20141013);
    for (int i = 0; i < 6000; ++i) {
      const std::string key = PinKey(rng.NextU64(1500));
      const TraceContext ctx =
          spans != nullptr ? spans->MintTrace() : TraceContext{};
      if (rng.NextU64(10) == 0) {
        EXPECT_TRUE((co_await db.Delete(key, ctx)).ok());
        model.erase(key);
        continue;
      }
      const size_t len = 100 + rng.NextU64(2900);
      std::string value(len, static_cast<char>('a' + i % 26));
      EXPECT_TRUE((co_await db.Put(key, value, ctx)).ok());
      model[key] = std::move(value);
    }
    co_await db.WaitIdle();
    // Read back through every table path: point lookups and a full scan.
    for (uint64_t k = 0; k < 1500; k += 7) {
      const auto r = co_await db.Get(PinKey(k));
      const auto it = model.find(PinKey(k));
      EXPECT_EQ(r.status.ok(), it != model.end()) << PinKey(k);
      if (it != model.end()) {
        EXPECT_EQ(r.value, it->second) << PinKey(k);
      }
    }
    std::map<std::string, std::string> live;
    const iosched::IoTag tag{.tenant = 1, .app = iosched::AppRequest::kGet};
    EXPECT_TRUE((co_await db.ScanLive(tag, [&](std::string_view k,
                                               std::string_view v) {
                  live.emplace(std::string(k), std::string(v));
                })).ok());
    EXPECT_EQ(live, model);
  }());
  EXPECT_EQ(db.DebugCheckInvariants(), "");

  PinResult out;
  std::vector<std::string> names = rig.fs.List();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    if (name.find("/sst_") == std::string::npos) {
      continue;
    }
    std::string bytes;
    EXPECT_TRUE(rig.fs.PeekContents(*rig.fs.Open(name), &bytes).ok());
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s:%08x:%zu ", name.c_str(),
                  Crc32(bytes), bytes.size());
    out.tables += buf;
  }
  const ssd::DeviceStats dev = rig.device.stats();
  out.reads = dev.reads_completed;
  out.writes = dev.writes_completed;
  out.read_bytes = dev.read_bytes;
  out.write_bytes = dev.write_bytes;
  out.now = rig.loop.Now();
  out.flushes = db.stats().flushes;
  out.compactions = db.stats().compactions;
  if (spans != nullptr) {
    EXPECT_EQ(spans->dropped(), 0u);
    std::string jobs;
    for (const obs::SpanRecord& s : spans->Spans()) {
      if (s.kind == obs::SpanKind::kFlush ||
          s.kind == obs::SpanKind::kCompact) {
        ++out.job_spans;
        AppendJobSpan(s, &jobs);
      }
    }
    out.job_span_crc = Crc32(jobs);
  }
  return out;
}

void ExpectPinned(const PinResult& got, const PinResult& want) {
  EXPECT_EQ(got.tables, want.tables);
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.writes, want.writes);
  EXPECT_EQ(got.read_bytes, want.read_bytes);
  EXPECT_EQ(got.write_bytes, want.write_bytes);
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.flushes, want.flushes);
  EXPECT_EQ(got.compactions, want.compactions);
}

TEST(BytePathPinTest, LeveledWithFiltersIsUnchanged) {
  PinResult want;
  want.tables = "pin/sst_79:ac3b9622:1582785 pin/sst_80:9bbb418a:508119 ";
  want.reads = 678;
  want.writes = 6395;
  want.read_bytes = 25427774;
  want.write_bytes = 32828925;
  want.now = 5334029677;
  want.flushes = 32;
  want.compactions = 12;
  ExpectPinned(RunPinned(CompactionPolicy::kLeveled, 10), want);
}

TEST(BytePathPinTest, SizeTieredIsUnchanged) {
  PinResult want;
  want.tables =
      "pin/sst_68:25db8860:2041802 pin/sst_75:9b1fe8ee:671246 "
      "pin/sst_77:f6c8d86e:262664 pin/sst_79:e705e370:261208 ";
  want.reads = 1086;
  want.writes = 6344;
  want.read_bytes = 24747871;
  want.write_bytes = 29738637;
  want.now = 5372453052;
  want.flushes = 32;
  want.compactions = 14;
  ExpectPinned(RunPinned(CompactionPolicy::kSizeTiered, 0), want);
}

TEST(BytePathPinTest, LeveledJobSpansAreUnchanged) {
  const PinResult got = RunPinned(CompactionPolicy::kLeveled, 10,
                                  /*num_levels=*/5, /*traced=*/true);
  EXPECT_EQ(got.flushes + got.compactions, got.job_spans);
  EXPECT_EQ(got.job_spans, 44u);
  EXPECT_EQ(got.job_span_crc, 2807572028u);
  // Tracing leaves the IO exactly as in the untraced run.
  EXPECT_EQ(got.tables,
            "pin/sst_79:ac3b9622:1582785 pin/sst_80:9bbb418a:508119 ");
  EXPECT_EQ(got.now, 5334029677);
}

// Three tiers with a trigger of 3: at most flushes/3 merges leave tier 0
// and flushes/9 leave tier 1, so every compaction past that is the bottom
// tier merging into itself.
TEST(BytePathPinTest, SizeTieredJobSpansWithBottomSelfMergeAreUnchanged) {
  const PinResult got = RunPinned(CompactionPolicy::kSizeTiered, 0,
                                  /*num_levels=*/3, /*traced=*/true);
  EXPECT_GT(got.compactions, got.flushes / 3 + got.flushes / 9);
  EXPECT_EQ(got.flushes + got.compactions, got.job_spans);
  EXPECT_EQ(got.compactions, 14u);
  EXPECT_EQ(got.job_spans, 46u);
  EXPECT_EQ(got.job_span_crc, 636892321u);
  EXPECT_EQ(got.tables,
            "pin/sst_68:3238eb31:2037721 pin/sst_75:9b1fe8ee:671246 "
            "pin/sst_77:f6c8d86e:262664 pin/sst_79:e705e370:261208 ");
  EXPECT_EQ(got.now, 5372293472);
}

}  // namespace
}  // namespace libra::lsm
