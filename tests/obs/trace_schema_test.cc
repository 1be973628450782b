// Chrome trace_event schema validation for span exports.
//
// Validates the invariants ui.perfetto.dev / chrome://tracing rely on:
// a top-level object with a traceEvents array; every event carries
// name/ph/pid/tid; "X" slices carry numeric ts/dur; "s"/"f" flow events
// carry an id and the finish side binds enclosing ("bp":"e"); "M" metadata
// carries args.name; device-IO slices carry a numeric args.queue_wait_ns
// within the slice. Runs against a self-generated export always, and —
// when LIBRA_TRACE_JSON names a file (CI points it at the bench-smoke
// artifact) — against a real emitted trace too.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/span.h"

namespace libra::obs {
namespace {

void ValidateChromeTrace(const std::string& json,
                         size_t* io_slices_seen = nullptr) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonParse(json, &doc, &err)) << err;
  ASSERT_TRUE(doc.is_object());
  const JsonValue* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_TRUE(unit->is_string());
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  size_t slices = 0;
  size_t io_slices = 0;
  size_t starts = 0;
  size_t finishes = 0;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(name->is_string());
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    const std::string& phase = ph->string_value;
    if (phase == "X") {
      ++slices;
      const JsonValue* ts = e.Find("ts");
      const JsonValue* dur = e.Find("dur");
      ASSERT_NE(ts, nullptr);
      ASSERT_NE(dur, nullptr);
      EXPECT_TRUE(ts->is_number());
      EXPECT_TRUE(dur->is_number());
      EXPECT_GE(dur->number, 0.0);
      const JsonValue* cat = e.Find("cat");
      if (cat != nullptr && cat->string_value == "io") {
        ++io_slices;
        const JsonValue* args = e.Find("args");
        ASSERT_NE(args, nullptr);
        const JsonValue* wait = args->Find("queue_wait_ns");
        ASSERT_NE(wait, nullptr) << "device-IO slice without queue_wait_ns";
        ASSERT_TRUE(wait->is_number());
        EXPECT_GE(wait->number, 0.0);
        EXPECT_LE(wait->number / 1000.0, dur->number);  // us vs ns
      }
    } else if (phase == "s" || phase == "f") {
      const JsonValue* id = e.Find("id");
      ASSERT_NE(id, nullptr);
      ASSERT_NE(e.Find("ts"), nullptr);
      if (phase == "s") {
        ++starts;
      } else {
        ++finishes;
        const JsonValue* bp = e.Find("bp");
        ASSERT_NE(bp, nullptr);
        EXPECT_EQ(bp->string_value, "e");
      }
    } else if (phase == "M") {
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->Find("name"), nullptr);
    } else {
      FAIL() << "unexpected phase: " << phase;
    }
  }
  EXPECT_GT(slices, 0u);
  EXPECT_EQ(starts, finishes);  // flow arrows come in matched pairs
  if (io_slices_seen != nullptr) {
    *io_slices_seen = io_slices;
  }
}

TEST(TraceSchemaTest, SelfGeneratedExportValidates) {
  SpanCollector c(64);
  const TraceContext root = c.MintTrace();
  SpanRecord req;
  req.trace_id = root.trace_id;
  req.span_id = root.span_id;
  req.kind = SpanKind::kRequest;
  req.app = 2;  // PUT
  req.tenant = 1;
  req.start_ns = 1000;
  req.end_ns = 9000;
  c.Record(req);

  const TraceContext flush = c.MintAlways();
  SpanRecord f;
  f.trace_id = flush.trace_id;
  f.span_id = flush.span_id;
  f.kind = SpanKind::kFlush;
  f.tenant = 1;
  f.start_ns = 10000;
  f.end_ns = 20000;
  f.links.Add(root);  // cross-trace causal arrow
  c.Record(f);

  const TraceContext io = c.MintChild(flush);
  SpanRecord d;
  d.trace_id = io.trace_id;
  d.span_id = io.span_id;
  d.parent_span = flush.span_id;
  d.kind = SpanKind::kDeviceIo;
  d.is_write = 1;
  d.tenant = 1;
  d.start_ns = 11000;
  d.end_ns = 15000;
  d.queue_wait_ns = 1500;  // dispatched at 12500
  c.Record(d);

  // A SCAN request span: the export must label the kScan class by name.
  const TraceContext scan = c.MintTrace();
  SpanRecord sc;
  sc.trace_id = scan.trace_id;
  sc.span_id = scan.span_id;
  sc.kind = SpanKind::kRequest;
  sc.app = 3;  // SCAN
  sc.tenant = 1;
  sc.start_ns = 21000;
  sc.end_ns = 29000;
  c.Record(sc);

  const std::string json = SpansToChromeTraceJson(c, 0, "node0");
  size_t io_slices = 0;
  ValidateChromeTrace(json, &io_slices);
  EXPECT_EQ(io_slices, 1u);
  EXPECT_NE(json.find("\"queue_wait_ns\":1500"), std::string::npos);
  EXPECT_NE(json.find("SCAN"), std::string::npos)
      << "kScan request spans must export under the SCAN class name";
}

TEST(TraceSchemaTest, ExternalTraceFileValidates) {
  const char* path = std::getenv("LIBRA_TRACE_JSON");
  if (path == nullptr || path[0] == '\0') {
    GTEST_SKIP() << "LIBRA_TRACE_JSON not set";
  }
  std::FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr) << "cannot open " << path;
  std::string json;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    json.append(buf, n);
  }
  std::fclose(f);
  ValidateChromeTrace(json);
}

}  // namespace
}  // namespace libra::obs
