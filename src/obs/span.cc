#include "src/obs/span.h"

#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "src/obs/json.h"

namespace libra::obs {
namespace {

// Mirrors the iosched::AppRequest / InternalOp vocabulary (io_tag.h); obs
// sits below iosched, so the names are duplicated rather than included.
const char* AppName(uint8_t app) {
  switch (app) {
    case 1:
      return "GET";
    case 2:
      return "PUT";
    case 3:
      return "SCAN";
    default:
      return "none";
  }
}

const char* InternalName(uint8_t internal) {
  switch (internal) {
    case 1:
      return "FLUSH";
    case 2:
      return "COMPACT";
    default:
      return "direct";
  }
}

std::string HexId(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

std::string SliceName(const SpanRecord& s) {
  switch (s.kind) {
    case SpanKind::kClientRequest:
      return std::string("rpc ") + AppName(s.app);
    case SpanKind::kRequest:
      return AppName(s.app);
    case SpanKind::kDeviceIo:
      return std::string("io ") + (s.is_write != 0 ? "W " : "R ") +
             InternalName(s.internal);
    case SpanKind::kFlush:
      return "FLUSH";
    case SpanKind::kCompact:
      return "COMPACT";
    case SpanKind::kCoalescedGet:
      return "GET coalesced";
    case SpanKind::kMigration:
      return "MIGRATE";
  }
  return "?";
}

const char* SliceCategory(const SpanRecord& s) {
  switch (s.kind) {
    case SpanKind::kClientRequest:
      return "rpc";
    case SpanKind::kRequest:
    case SpanKind::kCoalescedGet:
      return "request";
    case SpanKind::kDeviceIo:
      return "io";
    case SpanKind::kFlush:
    case SpanKind::kCompact:
      return "lsm";
    case SpanKind::kMigration:
      return "migration";
  }
  return "?";
}

// One retained span with the pid it exports under.
struct IndexedSpan {
  const SpanRecord* span = nullptr;
  int pid = 0;
};

void WriteCommonFields(JsonWriter& w, const SpanRecord& s, int pid) {
  w.Key("pid");
  w.Int(pid);
  w.Key("tid");
  w.Uint(s.tenant);
}

void WriteCompleteEvent(JsonWriter& w, const SpanRecord& s, int pid) {
  w.BeginObject();
  w.Key("name");
  w.String(SliceName(s));
  w.Key("cat");
  w.String(SliceCategory(s));
  w.Key("ph");
  w.String("X");
  w.Key("ts");
  w.Double(static_cast<double>(s.start_ns) / 1000.0);
  w.Key("dur");
  w.Double(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
  WriteCommonFields(w, s, pid);
  w.Key("args");
  w.BeginObject();
  w.Key("trace");
  w.String(HexId(s.trace_id));
  w.Key("span");
  w.String(HexId(s.span_id));
  if (s.parent_span != 0) {
    w.Key("parent");
    w.String(HexId(s.parent_span));
  }
  w.Key("app");
  w.String(AppName(s.app));
  w.Key("internal");
  w.String(InternalName(s.internal));
  w.Key("bytes");
  w.Uint(s.bytes);
  w.Key("vops");
  w.Double(s.vops);
  if (s.kind == SpanKind::kDeviceIo) {
    w.Key("queue_wait_ns");
    w.Uint(s.queue_wait_ns);
  }
  if (s.links.total > 0) {
    w.Key("links_total");
    w.Uint(s.links.total);
    w.Key("links_sampled");
    w.Uint(s.links.count);
  }
  w.EndObject();
  w.EndObject();
}

// One causal arrow: flow-start inside the source slice, flow-finish bound
// to the destination slice's start (bp:"e").
void WriteFlowPair(JsonWriter& w, const std::string& id,
                   const IndexedSpan& src, const IndexedSpan& dst) {
  w.BeginObject();
  w.Key("name");
  w.String("causal");
  w.Key("cat");
  w.String("flow");
  w.Key("ph");
  w.String("s");
  w.Key("id");
  w.String(id);
  w.Key("ts");
  w.Double(static_cast<double>(src.span->end_ns) / 1000.0);
  WriteCommonFields(w, *src.span, src.pid);
  w.EndObject();

  w.BeginObject();
  w.Key("name");
  w.String("causal");
  w.Key("cat");
  w.String("flow");
  w.Key("ph");
  w.String("f");
  w.Key("bp");
  w.String("e");
  w.Key("id");
  w.String(id);
  w.Key("ts");
  w.Double(static_cast<double>(dst.span->start_ns) / 1000.0);
  WriteCommonFields(w, *dst.span, dst.pid);
  w.EndObject();
}

}  // namespace

SpanCollector::SpanCollector(size_t capacity, uint32_t sample_every,
                             uint64_t id_seed)
    : ring_(std::max<size_t>(1, capacity)),
      seed_((id_seed & 0xFF) << 56),
      sample_every_(std::max<uint32_t>(1, sample_every)) {}

void SpanCollector::SeedIds(uint64_t seed) {
  seed_ = (seed & 0xFF) << 56;
}

TraceContext SpanCollector::MintTrace() {
  const uint64_t call = mint_calls_++;
  if (call % sample_every_ != 0) {
    ++sampled_out_;
    return {};
  }
  ++minted_;
  const uint64_t id = NextId();
  return {id, id};
}

TraceContext SpanCollector::MintAlways() {
  ++minted_;
  const uint64_t id = NextId();
  return {id, id};
}

TraceContext SpanCollector::MintChild(const TraceContext& parent) {
  if (!parent.valid()) {
    return {};
  }
  return {parent.trace_id, NextId()};
}

void SpanCollector::Record(const SpanRecord& rec) {
  ring_[head_] = rec;
  head_ = (head_ + 1) % ring_.size();
  ++total_;
}

std::vector<SpanRecord> SpanCollector::Spans() const {
  std::vector<SpanRecord> out;
  const size_t n = size();
  out.reserve(n);
  const size_t start = total_ > ring_.size() ? head_ : 0;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string SpansToChromeTraceJson(const std::vector<SpanExportGroup>& groups) {
  // Materialize every group's retained spans, indexed by span id so flow
  // arrows can resolve sources across collectors (cluster exports).
  std::vector<std::vector<SpanRecord>> spans_by_group;
  spans_by_group.reserve(groups.size());
  std::unordered_map<uint64_t, IndexedSpan> index;
  for (const SpanExportGroup& g : groups) {
    spans_by_group.push_back(g.collector != nullptr ? g.collector->Spans()
                                                    : std::vector<SpanRecord>());
    for (const SpanRecord& s : spans_by_group.back()) {
      index[s.span_id] = IndexedSpan{&s, g.pid};
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();

  // Metadata: process names, and one named thread per tenant seen.
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    w.BeginObject();
    w.Key("name");
    w.String("process_name");
    w.Key("ph");
    w.String("M");
    w.Key("pid");
    w.Int(groups[gi].pid);
    w.Key("tid");
    w.Int(0);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String(groups[gi].process_name.empty() ? "node" : groups[gi].process_name);
    w.EndObject();
    w.EndObject();
    std::unordered_set<uint32_t> named;
    for (const SpanRecord& s : spans_by_group[gi]) {
      if (!named.insert(s.tenant).second) {
        continue;
      }
      w.BeginObject();
      w.Key("name");
      w.String("thread_name");
      w.Key("ph");
      w.String("M");
      w.Key("pid");
      w.Int(groups[gi].pid);
      w.Key("tid");
      w.Uint(s.tenant);
      w.Key("args");
      w.BeginObject();
      w.Key("name");
      w.String("tenant " + std::to_string(s.tenant));
      w.EndObject();
      w.EndObject();
    }
  }

  // Slices.
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (const SpanRecord& s : spans_by_group[gi]) {
      WriteCompleteEvent(w, s, groups[gi].pid);
    }
  }

  // Causal arrows: parent edges and sampled links whose source span is
  // still retained somewhere (evicted sources drop their arrows, never the
  // destination slice).
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (const SpanRecord& s : spans_by_group[gi]) {
      const IndexedSpan dst{&s, groups[gi].pid};
      if (s.parent_span != 0) {
        if (const auto it = index.find(s.parent_span); it != index.end()) {
          WriteFlowPair(w, "p" + HexId(s.span_id), it->second, dst);
        }
      }
      for (uint32_t li = 0; li < s.links.count; ++li) {
        const auto it = index.find(s.links.items[li].span_id);
        if (it == index.end()) {
          continue;
        }
        WriteFlowPair(
            w, "l" + HexId(s.links.items[li].span_id) + "." + HexId(s.span_id),
            it->second, dst);
      }
    }
  }

  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string SpansToChromeTraceJson(const SpanCollector& collector, int pid,
                                   const std::string& process_name) {
  return SpansToChromeTraceJson({SpanExportGroup{&collector, pid,
                                                 process_name}});
}

std::unordered_set<uint64_t> CausallyReaching(
    const std::vector<SpanRecord>& spans,
    const std::function<bool(const SpanRecord&)>& pred) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    by_id[s.span_id] = &s;
  }
  // Reverse every retained edge (span -> its parent and linked spans) and
  // spread forward from the spans satisfying `pred`: each edge is walked
  // once, however many spans share an ancestor.
  std::unordered_map<uint64_t, std::vector<uint64_t>> caused;
  std::vector<uint64_t> frontier;
  for (const auto& [id, s] : by_id) {
    if (s->parent_span != 0 && by_id.contains(s->parent_span)) {
      caused[s->parent_span].push_back(id);
    }
    for (uint32_t i = 0; i < s->links.count; ++i) {
      if (by_id.contains(s->links.items[i].span_id)) {
        caused[s->links.items[i].span_id].push_back(id);
      }
    }
    if (pred(*s)) {
      frontier.push_back(id);
    }
  }
  std::unordered_set<uint64_t> reaching(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    const uint64_t id = frontier.back();
    frontier.pop_back();
    const auto it = caused.find(id);
    if (it == caused.end()) {
      continue;
    }
    for (const uint64_t next : it->second) {
      if (reaching.insert(next).second) {
        frontier.push_back(next);
      }
    }
  }
  return reaching;
}

bool CausallyReaches(const std::vector<SpanRecord>& spans, uint64_t from,
                     const std::function<bool(const SpanRecord&)>& pred) {
  return CausallyReaching(spans, pred).contains(from);
}

}  // namespace libra::obs
