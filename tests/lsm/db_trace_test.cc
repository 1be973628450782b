// LSM trace propagation: PUT contexts become memtable origins, FLUSH spans
// link them, COMPACT spans chain through table lineage so compaction device
// IO stays causally attributable to the app requests whose bytes it moves —
// and the whole pipeline is deterministic (byte-identical exports across
// identical runs, including when runs execute on concurrent threads, which
// is what --jobs exercises in the sweep benches).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/fs/sim_fs.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/lsm/db.h"
#include "src/obs/span.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"
#include "tests/lsm/lsm_rig.h"

namespace libra::lsm {
namespace {

using iosched::AppRequest;
using iosched::InternalOp;

// LsmRig with span collection enabled and an LSM tuned to compact fast.
struct TraceRig {
  sim::EventLoop loop;
  ssd::SsdDevice device{loop, ssd::Intel320Profile()};
  iosched::IoScheduler sched{
      loop, device,
      std::make_unique<iosched::ExactCostModel>(testing::RigTable()), [] {
        iosched::SchedulerOptions o;
        o.span_capacity = 1 << 14;
        return o;
      }()};
  fs::SimFs fs{sched, device};
  LsmDb db;

  TraceRig()
      : db(loop, fs, sched, 1, "t1", [] {
          LsmOptions o;
          o.write_buffer_bytes = 8 * 1024;
          o.target_file_bytes = 8 * 1024;
          o.l0_compaction_trigger = 2;
          o.max_bytes_level1 = 16 * 1024;
          return o;
        }()) {
    sched.SetAllocation(1, 50000.0);
  }

  void RunTask(sim::Task<void> t) {
    sim::Detach(std::move(t));
    loop.Run();
  }
};

std::string Value(int i) { return std::string(512, 'a' + (i % 26)); }

// Writes enough churn to force flushes and at least one compaction, each
// PUT traced with its own root context.
sim::Task<void> ChurnWrites(TraceRig* rig, int n) {
  for (int i = 0; i < n; ++i) {
    const TraceContext ctx = rig->sched.spans()->MintTrace();
    const Status s = co_await rig->db.Put(
        "key" + std::to_string(i % 40), Value(i), ctx);
    EXPECT_TRUE(s.ok());
    if (ctx.valid()) {
      // The node layer records the request span; emulate it here so the
      // causal chain has kRequest roots to land on.
      obs::SpanRecord rec;
      rec.trace_id = ctx.trace_id;
      rec.span_id = ctx.span_id;
      rec.kind = obs::SpanKind::kRequest;
      rec.app = static_cast<uint8_t>(AppRequest::kPut);
      rec.tenant = 1;
      rec.end_ns = rig->loop.Now();
      rig->sched.spans()->Record(rec);
    }
  }
  co_await rig->db.WaitIdle();
}

TEST(DbTraceTest, FlushSpansLinkOriginPutContexts) {
  TraceRig rig;
  ASSERT_TRUE(rig.db.Open().ok());
  rig.RunTask(ChurnWrites(&rig, 60));

  ASSERT_GT(rig.db.stats().flushes, 0u);
  int flush_spans = 0;
  for (const obs::SpanRecord& s : rig.sched.spans()->Spans()) {
    if (s.kind == obs::SpanKind::kFlush) {
      ++flush_spans;
      EXPECT_GT(s.links.total, 0u) << "flush span with no origin links";
      EXPECT_GT(s.bytes, 0u);
      EXPECT_EQ(s.internal, static_cast<uint8_t>(InternalOp::kFlush));
    }
  }
  EXPECT_GT(flush_spans, 0);
}

TEST(DbTraceTest, CompactionDeviceIoReachesPutRequests) {
  TraceRig rig;
  ASSERT_TRUE(rig.db.Open().ok());
  rig.RunTask(ChurnWrites(&rig, 200));

  ASSERT_GT(rig.db.stats().compactions, 0u);
  const std::vector<obs::SpanRecord> spans = rig.sched.spans()->Spans();
  const std::unordered_set<uint64_t> reaches_put =
      obs::CausallyReaching(spans, [](const obs::SpanRecord& r) {
        return r.kind == obs::SpanKind::kRequest &&
               r.app == static_cast<uint8_t>(AppRequest::kPut);
      });
  int compact_ios = 0;
  int linked = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.kind == obs::SpanKind::kDeviceIo &&
        s.internal == static_cast<uint8_t>(InternalOp::kCompact)) {
      ++compact_ios;
      if (reaches_put.contains(s.span_id)) {
        ++linked;
      }
    }
  }
  EXPECT_GT(compact_ios, 0);
  EXPECT_GT(linked, 0);
}

TEST(DbTraceTest, CompactSpansChainThroughTableLineage) {
  TraceRig rig;
  ASSERT_TRUE(rig.db.Open().ok());
  rig.RunTask(ChurnWrites(&rig, 200));

  const std::vector<obs::SpanRecord> spans = rig.sched.spans()->Spans();
  int compact_spans = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.kind == obs::SpanKind::kCompact) {
      ++compact_spans;
      // A compaction consumes at least the L0 trigger's worth of tables:
      // its parent is the first input's lineage and the rest are links, so
      // fan-in plus merged origins must be non-empty.
      EXPECT_GT(s.links.total, 0u);
      EXPECT_NE(s.parent_span, 0u);
    }
  }
  EXPECT_GT(compact_spans, 0);
}

std::string RunAndExport() {
  TraceRig rig;
  EXPECT_TRUE(rig.db.Open().ok());
  rig.RunTask(ChurnWrites(&rig, 120));
  return obs::SpansToChromeTraceJson(*rig.sched.spans(), 0, "node0");
}

TEST(DbTraceTest, ExportIsByteIdenticalAcrossRunsAndThreads) {
  const std::string serial_a = RunAndExport();
  const std::string serial_b = RunAndExport();
  EXPECT_EQ(serial_a, serial_b);

  // Two concurrent runs (what --jobs=N does to sweep cells) must produce
  // the same bytes as the serial runs.
  std::string from_t1, from_t2;
  std::thread t1([&] { from_t1 = RunAndExport(); });
  std::thread t2([&] { from_t2 = RunAndExport(); });
  t1.join();
  t2.join();
  EXPECT_EQ(from_t1, serial_a);
  EXPECT_EQ(from_t2, serial_a);
}

}  // namespace
}  // namespace libra::lsm
