// Causal span recording: the bounded per-node store behind end-to-end
// request tracing, and its Chrome/Perfetto trace_event JSON export.
//
// A span is one timed operation (virtual-time start/end) inside a trace: a
// client RPC, a node-level request, a device IO (one scheduler op, all
// chunks), a FLUSH/COMPACT rewrite, or a migration copy. Spans carry their
// parent within the trace plus a bounded sample of *cross-trace causal
// links* — the contexts of the app requests whose bytes a flush moves, the
// followers who rode a WAL group commit, the tables a compaction consumed —
// which is how a COMPACT device IO is connected back to the PUTs that
// caused it even though they belong to different traces.
//
// The collector is a fixed-capacity ring: recording is a cursor bump plus a
// POD store, dropped spans are counted (no silent caps), and id minting is
// a deterministic counter (optionally namespaced by a per-node seed) so
// traces are byte-identical across runs and --jobs values. Sampling (1/N
// minting) gates span recording only; attribution (q̂^{a,i}) is derived
// from the ResourceTracker, which sees every IO whether traced or not.

#ifndef LIBRA_SRC_OBS_SPAN_H_
#define LIBRA_SRC_OBS_SPAN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/trace_context.h"

namespace libra::obs {

enum class SpanKind : uint8_t {
  kClientRequest = 0,  // cluster routing dispatch (TenantHandle)
  kRequest = 1,        // app request at the storage node
  kDeviceIo = 2,       // one scheduler op (all chunks)
  kFlush = 3,          // memtable -> L0 rewrite
  kCompact = 4,        // level merge rewrite
  kCoalescedGet = 5,   // follower riding a singleflight leader's lookup
  kMigration = 6,      // shard migration copy
};

inline constexpr int kMaxSpanLinks = 4;

// Bounded sample of causal contributors: `total` counts every traced
// contributor seen, the first kMaxSpanLinks of them are retained. Callers
// can always tell sampled links from complete ones (count < total).
struct SpanLinkSet {
  uint32_t total = 0;
  uint32_t count = 0;
  TraceContext items[kMaxSpanLinks];

  void Add(const TraceContext& ctx) {
    if (!ctx.valid()) {
      return;
    }
    ++total;
    if (count < kMaxSpanLinks) {
      items[count++] = ctx;
    }
  }

  void Merge(const SpanLinkSet& other) {
    for (uint32_t i = 0; i < other.count; ++i) {
      Add(other.items[i]);
    }
    total += other.total - other.count;  // unretained contributors still count
  }
};

struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;  // 0 = root of its trace
  SpanKind kind = SpanKind::kRequest;
  uint8_t app = 0;       // iosched::AppRequest vocabulary (see io_tag.h)
  uint8_t internal = 0;  // iosched::InternalOp vocabulary
  uint8_t is_write = 0;  // device IO direction (kDeviceIo only)
  uint32_t tenant = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
  double vops = 0.0;       // attributed cost (kDeviceIo: exact op total)
  // kDeviceIo only: submit -> first chunk dispatch, the DRR throttling
  // delay (the scheduler's lifecycle queue-wait sample for this op).
  uint64_t queue_wait_ns = 0;
  SpanLinkSet links;       // sampled cross-trace causal contributors
};

class SpanCollector {
 public:
  // capacity: spans retained (newest win). sample_every: mint 1 of every N
  // root traces (1 = trace everything). id_seed: high-byte namespace for
  // minted ids so multiple collectors (cluster nodes) never collide.
  explicit SpanCollector(size_t capacity, uint32_t sample_every = 1,
                         uint64_t id_seed = 0);

  // Mints a root context for a new application request, honoring the 1/N
  // sampling rate: unsampled requests get an invalid context and flow
  // through every layer untraced at the cost of one branch each.
  TraceContext MintTrace();

  // Mints a root context unconditionally (background ops — flush,
  // compaction, migration — are rare and always traced when collection is
  // on, so their causal links to sampled requests are never lost).
  TraceContext MintAlways();

  // Child span id within an existing trace; invalid if the parent is.
  TraceContext MintChild(const TraceContext& parent);

  void Record(const SpanRecord& rec);

  // Re-namespace minted ids; must precede any minting.
  void SeedIds(uint64_t seed);

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return std::min(total_, ring_.size()); }
  uint64_t total_recorded() const { return total_; }
  // Spans evicted from the ring since construction (no silent caps).
  uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  uint64_t minted_traces() const { return minted_; }
  uint64_t sampled_out() const { return sampled_out_; }
  uint32_t sample_every() const { return sample_every_; }

  // Retained spans, oldest first.
  std::vector<SpanRecord> Spans() const;

 private:
  uint64_t NextId() { return seed_ | ++next_id_; }

  std::vector<SpanRecord> ring_;
  size_t head_ = 0;  // next write position
  uint64_t total_ = 0;
  uint64_t seed_ = 0;
  uint64_t next_id_ = 0;
  uint32_t sample_every_ = 1;
  uint64_t mint_calls_ = 0;
  uint64_t minted_ = 0;
  uint64_t sampled_out_ = 0;
};

// One collector's contribution to a merged Chrome trace export: its spans
// become slices under `pid` (Perfetto renders one process group per pid,
// one thread track per tenant).
struct SpanExportGroup {
  const SpanCollector* collector = nullptr;
  int pid = 0;
  std::string process_name;
};

// Renders spans as a Chrome trace_event JSON document loadable in
// ui.perfetto.dev: "X" complete events (ts/dur in microseconds of virtual
// time), "s"/"f" flow events drawing the causal arrows (parent edges and
// sampled links whose source span is still retained), and "M" metadata
// naming processes and tenant threads. Deterministic: byte-identical for
// identical simulations.
std::string SpansToChromeTraceJson(const std::vector<SpanExportGroup>& groups);

// Ids of the spans in `spans` that reach a span satisfying `pred` (itself
// included) by following parent edges and retained links backwards. One
// pass over spans and links, so checking every span of a trace costs the
// same as checking one — the causal-chain assertions (e.g. COMPACT device
// IO -> ... -> PUT) call this once and look each span up.
std::unordered_set<uint64_t> CausallyReaching(
    const std::vector<SpanRecord>& spans,
    const std::function<bool(const SpanRecord&)>& pred);

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_SPAN_H_
