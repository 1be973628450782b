#include "src/obs/span.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "tests/support/json_parse.h"

namespace libra::obs {
namespace {

SpanRecord MakeSpan(uint64_t trace, uint64_t span, uint64_t parent,
                    SpanKind kind) {
  SpanRecord r;
  r.trace_id = trace;
  r.span_id = span;
  r.parent_span = parent;
  r.kind = kind;
  return r;
}

TEST(SpanCollectorTest, MintsSequentialIdsAndRecords) {
  SpanCollector c(16);
  const TraceContext a = c.MintTrace();
  const TraceContext b = c.MintTrace();
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(c.minted_traces(), 2u);

  SpanRecord r;
  r.trace_id = a.trace_id;
  r.span_id = a.span_id;
  c.Record(r);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.total_recorded(), 1u);
  EXPECT_EQ(c.dropped(), 0u);
}

TEST(SpanCollectorTest, RingEvictsOldestAndCountsDrops) {
  SpanCollector c(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    c.Record(MakeSpan(i, i, 0, SpanKind::kRequest));
  }
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.total_recorded(), 10u);
  EXPECT_EQ(c.dropped(), 6u);
  const std::vector<SpanRecord> spans = c.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, newest retained.
  EXPECT_EQ(spans.front().span_id, 7u);
  EXPECT_EQ(spans.back().span_id, 10u);
}

TEST(SpanCollectorTest, SamplingMintsOneOfEveryN) {
  SpanCollector c(16, /*sample_every=*/4);
  int valid = 0;
  for (int i = 0; i < 16; ++i) {
    if (c.MintTrace().valid()) {
      ++valid;
    }
  }
  EXPECT_EQ(valid, 4);
  EXPECT_EQ(c.minted_traces(), 4u);
  EXPECT_EQ(c.sampled_out(), 12u);
}

TEST(SpanCollectorTest, MintAlwaysIgnoresSampling) {
  SpanCollector c(16, /*sample_every=*/1000);
  EXPECT_TRUE(c.MintAlways().valid());
}

TEST(SpanCollectorTest, MintChildSharesTraceId) {
  SpanCollector c(16);
  const TraceContext root = c.MintTrace();
  const TraceContext child = c.MintChild(root);
  ASSERT_TRUE(child.valid());
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
  // An invalid parent yields an invalid child (untraced request flows
  // through without minting).
  EXPECT_FALSE(c.MintChild(TraceContext{}).valid());
}

TEST(SpanCollectorTest, SeedNamespacesIds) {
  SpanCollector a(4, 1, /*id_seed=*/1);
  SpanCollector b(4, 1, /*id_seed=*/2);
  const TraceContext ca = a.MintTrace();
  const TraceContext cb = b.MintTrace();
  EXPECT_NE(ca.trace_id, cb.trace_id);
  EXPECT_NE(ca.span_id, cb.span_id);
}

TEST(SpanLinkSetTest, RetainsBoundedSampleCountsAll) {
  SpanLinkSet s;
  s.Add(TraceContext{});  // invalid: ignored entirely
  EXPECT_EQ(s.total, 0u);
  for (uint64_t i = 1; i <= 10; ++i) {
    s.Add(TraceContext{i, i});
  }
  EXPECT_EQ(s.total, 10u);
  EXPECT_EQ(s.count, static_cast<uint32_t>(kMaxSpanLinks));
  EXPECT_EQ(s.items[0].trace_id, 1u);

  SpanLinkSet t;
  t.Add(TraceContext{99, 99});
  t.Merge(s);
  EXPECT_EQ(t.total, 11u);  // unretained contributors still counted
  EXPECT_EQ(t.count, static_cast<uint32_t>(kMaxSpanLinks));
}

TEST(CausallyReachesTest, FollowsParentsAndLinksBackwards) {
  // PUT request (1) -> [origin link] flush (2) -> [lineage] compact (3)
  // -> compact device IO (4, child of 3).
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan(10, 1, 0, SpanKind::kRequest));
  SpanRecord flush = MakeSpan(20, 2, 0, SpanKind::kFlush);
  flush.links.Add(TraceContext{10, 1});
  spans.push_back(flush);
  SpanRecord compact = MakeSpan(20, 3, 0, SpanKind::kCompact);
  compact.links.Add(TraceContext{20, 2});
  spans.push_back(compact);
  spans.push_back(MakeSpan(20, 4, 3, SpanKind::kDeviceIo));

  EXPECT_TRUE(CausallyReaching(spans, [](const SpanRecord& r) {
                return r.kind == SpanKind::kRequest;
              }).contains(4));
  EXPECT_FALSE(CausallyReaching(spans, [](const SpanRecord& r) {
                 return r.kind == SpanKind::kDeviceIo;
               }).contains(1));
}

TEST(CausallyReachesTest, ReachingSetHandlesSharedAncestorsCyclesAndGaps) {
  // Request 1 <- flushes 2 and 3 (both link it) <- compact 4 (links both)
  // <- device IO 5. Spans 6 and 7 link each other and nothing else; 8's
  // parent (99) was dropped from the ring.
  std::vector<SpanRecord> spans;
  spans.push_back(MakeSpan(1, 1, 0, SpanKind::kRequest));
  for (uint64_t id : {2, 3}) {
    SpanRecord flush = MakeSpan(2, id, 0, SpanKind::kFlush);
    flush.links.Add(TraceContext{1, 1});
    spans.push_back(flush);
  }
  SpanRecord compact = MakeSpan(2, 4, 0, SpanKind::kCompact);
  compact.links.Add(TraceContext{2, 2});
  compact.links.Add(TraceContext{2, 3});
  spans.push_back(compact);
  spans.push_back(MakeSpan(2, 5, 4, SpanKind::kDeviceIo));
  SpanRecord a = MakeSpan(3, 6, 0, SpanKind::kFlush);
  a.links.Add(TraceContext{3, 7});
  SpanRecord b = MakeSpan(3, 7, 0, SpanKind::kFlush);
  b.links.Add(TraceContext{3, 6});
  spans.push_back(a);
  spans.push_back(b);
  spans.push_back(MakeSpan(4, 8, 99, SpanKind::kDeviceIo));

  const std::unordered_set<uint64_t> reaching =
      CausallyReaching(spans, [](const SpanRecord& r) {
        return r.kind == SpanKind::kRequest;
      });
  EXPECT_EQ(reaching, (std::unordered_set<uint64_t>{1, 2, 3, 4, 5}));
  // A span id missing from the ring reaches nothing, whatever the predicate.
  EXPECT_FALSE(CausallyReaching(spans, [](const SpanRecord&) {
                 return true;
               }).contains(99));
}

TEST(SpanExportTest, ChromeJsonParsesAndIsDeterministic) {
  SpanCollector c(16);
  const TraceContext root = c.MintTrace();
  SpanRecord req = MakeSpan(root.trace_id, root.span_id, 0, SpanKind::kRequest);
  req.tenant = 3;
  req.start_ns = 1000;
  req.end_ns = 5000;
  c.Record(req);
  const TraceContext dev = c.MintChild(root);
  SpanRecord io = MakeSpan(dev.trace_id, dev.span_id, root.span_id,
                           SpanKind::kDeviceIo);
  io.tenant = 3;
  io.start_ns = 2000;
  io.end_ns = 4000;
  io.is_write = 1;
  c.Record(io);

  const std::string json = SpansToChromeTraceJson({{&c, 7, "n7"}});
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonParse(json, &doc, &err)) << err;
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  // Metadata, two "X" slices, and one flow pair for the parent edge.
  int slices = 0, flows = 0, meta = 0;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.Find("ph")->string_value;
    if (ph == "X") {
      ++slices;
    } else if (ph == "s" || ph == "f") {
      ++flows;
    } else if (ph == "M") {
      ++meta;
    }
  }
  EXPECT_EQ(slices, 2);
  EXPECT_EQ(flows, 2);
  EXPECT_GE(meta, 2);  // process name + tenant thread name

  EXPECT_EQ(json, SpansToChromeTraceJson({{&c, 7, "n7"}}));  // byte-stable
}

}  // namespace
}  // namespace libra::obs
