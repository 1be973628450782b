// The Libra IO scheduler (paper §2.2, §4.3, §5).
//
// Tenant tasks submit tagged reads/writes; the scheduler interleaves them
// in deficit round robin order, charging each dispatched IOP its VOP cost
// and deducting it from the tenant's per-round budget. A task whose tenant
// has exhausted its budget stays suspended until a later round — exactly
// the paper's coroutine mechanism ("Libra ... delays IO operations that
// would otherwise exceed a tenant's resource allocation until a subsequent
// scheduling round").
//
// Rounds are demand-driven: the dispatcher fills the device queue (depth
// 32) from tenants with budget and work; when no tenant is both eligible
// and affordable, a new round starts and budgets are replenished in
// proportion to VOP allocations. Consequences:
//   - proportional sharing: backlogged tenants split actual device
//     throughput by allocation ratio;
//   - absolute guarantees: as long as the sum of allocations stays within
//     the capacity floor, each tenant's share of real throughput is at
//     least its allocation (paper §4.3);
//   - work conservation: an idle tenant's budget is not hoarded (classic
//     DRR deficit reset), so spare throughput flows to busy tenants.
//
// IOPs larger than chunk_bytes (128KB) are split into chunks that are
// scheduled independently — the responsiveness/throughput trade-off the
// paper notes as the cause of the Fig. 7 large-read deviation.
//
// The paper's implementation distributes DRR state across scheduler
// threads (DDRR) to avoid lock contention; in this single-threaded
// simulation the ring below is the sequential projection of that design
// (see DESIGN.md §6).

#ifndef LIBRA_SRC_IOSCHED_SCHEDULER_H_
#define LIBRA_SRC_IOSCHED_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/iosched/cost_model.h"
#include "src/iosched/io_tag.h"
#include "src/iosched/resource_tracker.h"
#include "src/iosched/tenant_slots.h"
#include "src/obs/io_stats.h"
#include "src/obs/span.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/ssd/device.h"

namespace libra::iosched {

struct SchedulerOptions {
  int queue_depth = ssd::kSsdQueueDepth;  // concurrent IOPs at the device
  uint32_t chunk_bytes = 128 * 1024;      // split threshold (0x20000)
  bool enable_chunking = true;            // ablation switch
  double round_quantum_vops = 256.0;      // total budget added per round
  // Causal span collection: 0 disables (every trace-context branch in the
  // IO path then costs one null/validity check); > 0 keeps the newest N
  // spans (see obs::SpanCollector). Each device-IO span carries its op's
  // queue wait, so the collector is also the per-op lifecycle trace.
  size_t span_capacity = 0;
  // Mint 1 of every N root traces (1 = trace every request).
  uint32_t span_sample_every = 1;
  // High-byte namespace for minted span ids (cluster nodes use their index
  // so ids never collide across collectors).
  uint64_t span_id_seed = 0;
};

// Per-tenant IO lifecycle statistics, always on: queue-wait (submit ->
// first dispatch, i.e. DRR throttling delay) and device-service (first
// dispatch -> last chunk completion) histograms per (app request, internal
// op) class, plus op/chunk/byte counts.
//
// Classes allocate on first use: a tenant typically exercises 2-4 of the 9
// (app, internal) combinations, so an idle class costs one null pointer and
// a used one a ~150-byte record plus the octave chunks its histograms hit
// (128 bytes each). Recording allocates only on a class's first op or a
// sample's first landing in a new octave; otherwise it is plain arithmetic.
struct TenantLifecycleStats {
  std::unique_ptr<obs::IoClassStats> cls[kNumAppRequests][kNumInternalOps];

  // Get-or-create (allocates at most once per class).
  obs::IoClassStats& Mutable(AppRequest a, InternalOp i) {
    std::unique_ptr<obs::IoClassStats>& p =
        cls[static_cast<int>(a)][static_cast<int>(i)];
    if (p == nullptr) {
      p = std::make_unique<obs::IoClassStats>();
    }
    return *p;
  }
  // nullptr if the class never saw traffic.
  const obs::IoClassStats* of(AppRequest a, InternalOp i) const {
    return cls[static_cast<int>(a)][static_cast<int>(i)].get();
  }

  // All classes folded together (per-tenant rollup).
  obs::IoClassStats Aggregate() const {
    obs::IoClassStats out;
    for (const auto& row : cls) {
      for (const std::unique_ptr<obs::IoClassStats>& c : row) {
        if (c != nullptr) {
          out.Merge(*c);
        }
      }
    }
    return out;
  }
};

class IoScheduler {
 public:
  IoScheduler(sim::EventLoop& loop, ssd::SsdDevice& device,
              std::unique_ptr<CostModel> cost_model,
              SchedulerOptions options = {});

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  // The node's tenant registry (kept by the tracker): per-tenant state
  // here and in the tracker is indexed by the slots it assigns.
  TenantSlots& slots() { return tracker_.slots(); }
  const TenantSlots& slots() const { return tracker_.slots(); }

  // Registers a tenant with a VOP/s allocation (used as its DRR weight).
  // Re-registering updates the allocation.
  void SetAllocation(TenantSlot tenant, double vops_per_sec);
  void SetAllocation(TenantId tenant, double vops_per_sec) {
    SetAllocation(slots().Assign(tenant), vops_per_sec);
  }
  double Allocation(TenantId tenant) const;

  // Submits one IO and suspends until it (all chunks) completes.
  sim::Task<void> Read(const IoTag& tag, uint64_t offset, uint32_t size);
  sim::Task<void> Write(const IoTag& tag, uint64_t offset, uint32_t size);

  // Submits one batched IOP carrying a multi-tag manifest. The manifest's
  // shares must be non-empty, byte-ordered, and sum exactly to `size`. The
  // op is scheduled (DRR queue, deficit charge, lifecycle stats) under the
  // first share's tag — the batch leader — but its VOP cost is split across
  // all shares proportionally to bytes with an exact-sum invariant, so the
  // ResourceTracker's per-(tenant, app, op) profiles see each contributor's
  // true fraction of the merged IOP. A single-share manifest degenerates to
  // the plain Write path.
  sim::Task<void> WriteShared(uint64_t offset, uint32_t size,
                              std::vector<IoShare> manifest);

  ResourceTracker& tracker() { return tracker_; }
  const ResourceTracker& tracker() const { return tracker_; }
  const CostModel& cost_model() const { return *cost_model_; }
  sim::EventLoop& loop() { return loop_; }

  // Rounds completed so far (scheduling-cadence introspection).
  uint64_t rounds() const { return rounds_; }
  int inflight() const { return inflight_; }

  // Sum of queued (not yet dispatched) chunks across tenants.
  size_t backlog() const;

  // Lifecycle statistics for a tenant; nullptr until the tenant has been
  // registered (SetAllocation) or has submitted an IO.
  const TenantLifecycleStats* lifecycle(TenantId tenant) const;

  // Span collector; nullptr unless options.span_capacity > 0. Every layer
  // above the scheduler reaches tracing through this single owner.
  obs::SpanCollector* spans() { return spans_.get(); }
  const obs::SpanCollector* spans() const { return spans_.get(); }

  // Whether the tenant has queued or in-flight work right now.
  bool HasDemand(TenantId tenant) const {
    const Tenant* t = FindTenant(slots().Find(tenant));
    return t != nullptr && t->active();
  }

  // Nanoseconds the tenant had queued or in-flight work since the last
  // call — the SLA monitor's per-interval demand measure (an instantaneous
  // HasDemand sample at interval end mislabels load dips as enforcement
  // failures). Closes any open busy period at the current time and starts
  // a fresh one if the tenant is still active.
  SimDuration ConsumeDemandTime(TenantSlot tenant);
  SimDuration ConsumeDemandTime(TenantId tenant) {
    return ConsumeDemandTime(slots().Find(tenant));
  }

 private:
  // Ops live in a scheduler-owned pool (op_arena_ + op_free_) and are
  // recycled when the last chunk completes — no per-IO allocation after the
  // pool warms up. Raw Op* are safe: the pool outlives every queue entry
  // and in-flight chunk context, and an Op is only freed at its single
  // completion point.
  struct Op {
    IoTag tag;
    ssd::IoType type;
    uint64_t offset;
    uint32_t size;
    uint32_t dispatched;       // bytes handed to the device
    uint32_t chunks_inflight;
    uint32_t chunks_total;     // chunks dispatched over the op's lifetime
    SimTime submit_time;
    SimTime first_dispatch;    // valid once dispatched > 0
    double cost_accum;         // summed chunk VOPs (span emission only)
    sim::OneShot<bool>* done;
    // Multi-tag cost manifest for batched IOPs (WriteShared); empty for
    // plain single-tag IOs, which keep the exact pre-manifest fast path.
    std::vector<IoShare> manifest;

    bool fully_dispatched() const { return dispatched >= size; }
  };

  struct Tenant {
    double allocation = 0.0;  // VOP/s (DRR weight)
    double deficit = 0.0;     // VOPs available now
    int chunks_inflight = 0;  // dispatched, not yet completed
    sim::FifoQueue<Op*> queue;  // owned by the op pool
    // Created when the scheduler first sees the tenant (SetAllocation or
    // a submitted IO); nullptr marks a slot the scheduler has not seen.
    std::unique_ptr<TenantLifecycleStats> lifecycle;

    // Demand busy-time accounting for ConsumeDemandTime: start of the open
    // busy period (< 0 while idle) and time accumulated since last consumed.
    SimTime busy_since = -1;
    SimDuration busy_accum = 0;

    // rounds_ when the tenant last went idle. Classic DRR clamps an idle
    // tenant's deficit to min(deficit, 0) at every round; the clamp is
    // idempotent and nothing reads an idle deficit, so Submit applies it
    // once, on reactivation, if a round passed since this mark.
    uint64_t idle_round = 0;

    // A tenant is active while it has queued or in-flight work; closed-loop
    // workers mid-IO count as demand (their next op arrives on completion).
    bool active() const { return !queue.empty() || chunks_inflight > 0; }
  };

  // One bit per ring position (the registry's id rank). Pump, NewRound
  // and the round-open check visit only the set bits, in rank (= id)
  // order, so they touch the records of queued or active tenants only
  // (plus one word load per 64 registered tenants when skipping empty
  // words).
  class IndexBits {
   public:
    static constexpr size_t kNone = SIZE_MAX;
    void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
    void Reset(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
    // First set bit at index >= `from`, or kNone.
    size_t Next(size_t from) const;
    // All clear, with room for `n` bits.
    void Clear(size_t n) { words_.assign((n + 63) / 64, 0); }

   private:
    std::vector<uint64_t> words_;
  };

  // Tenants sit in a dense vector indexed by slot; queued_ and active_ are
  // indexed by the registry's id rank, so the DRR ring visits tenants in id
  // order (deterministic round-robin order) whatever order they arrived
  // in. A registration shifts ranks, so the bitmaps are rebuilt from the
  // records when the registry has grown (SyncRanks); the hot paths only
  // walk set bits.
  Tenant* FindTenant(TenantSlot slot);
  const Tenant* FindTenant(TenantSlot slot) const;

  // Find-or-create with lifecycle stats attached.
  Tenant& GetTenant(TenantSlot slot);

  // Rebuilds queued_/active_ when the registry gained slots since the
  // last rebuild (cheap no-op otherwise).
  void SyncRanks();
  size_t RankOf(TenantSlot slot) const { return slots().RankOf(slot); }
  Tenant& AtRank(size_t rank) {
    return tenants_[SlotIndex(slots().by_id()[rank].slot)];
  }

  Op* AllocOp(const IoTag& tag, ssd::IoType type, uint64_t offset,
              uint32_t size);
  void FreeOp(Op* op);

  // `manifest` is empty for plain IOs; for shared IOPs it is the validated,
  // byte-ordered multi-tag manifest. Every parameter — the tag included —
  // is taken by value: coroutine parameters must own their storage across
  // suspension (WriteShared passes tags whose backing locals die before
  // the task first runs).
  sim::Task<void> Submit(IoTag tag, ssd::IoType type, uint64_t offset,
                         uint32_t size, std::vector<IoShare> manifest);

  // Next chunk size for the head op of a tenant queue.
  uint32_t NextChunkBytes(const Op& op) const;

  // Dispatch pump: fills device slots while eligible work exists.
  void Pump();

  // Replenishes deficits; returns true if any tenant became eligible.
  bool NewRound();

  void DispatchChunk(Tenant& tenant);

  // One contributor's pre-split slice of a shared chunk: `bytes` overlap
  // between the chunk's byte range and the share's manifest range, and the
  // exact VOP cost charged for it (all but the last slice take their byte
  // fraction of the chunk cost; the last takes the remainder, so the slice
  // costs reconstruct the chunk cost bit-for-bit).
  struct ChunkShare {
    IoTag tag;
    uint32_t bytes = 0;
    double cost = 0.0;
  };

  // Per-chunk completion context, recycled through a free list (live
  // entries bounded by queue_depth). The device completion callback
  // captures only {this, index} — one reused record per chunk slot instead
  // of a fresh closure per dispatch.
  struct ChunkCtx {
    Op* op = nullptr;
    double cost = 0.0;
    uint32_t chunk = 0;
    uint32_t next_free = 0;
    // Cost split for shared chunks; empty for plain chunks. The vector's
    // capacity is recycled with the slot, so steady-state shared traffic
    // does not allocate.
    std::vector<ChunkShare> shares;
  };
  uint32_t AllocChunkCtx();
  void OnChunkComplete(uint32_t index);

  // Emits the op's kDeviceIo span (traced ops only; shared ops link every
  // traced manifest rider beyond the one chosen as parent).
  void EmitDeviceIoSpan(const Op& op, SimTime now);

  sim::EventLoop& loop_;
  ssd::SsdDevice& device_;
  std::unique_ptr<CostModel> cost_model_;
  SchedulerOptions options_;
  ResourceTracker tracker_;

  std::vector<Tenant> tenants_;  // by TenantSlot
  IndexBits queued_;             // tenant queue non-empty, by rank
  IndexBits active_;             // Tenant::active(), by rank
  size_t ranked_slots_ = 0;      // registry size the bitmaps were built for
  // Tenant to consider next (kNone: start of the ring, the lowest id).
  TenantSlot ring_cursor_ = TenantSlot::kNone;

  std::deque<Op> op_arena_;  // stable addresses; Op* handles circulate
  std::vector<Op*> op_free_;

  static constexpr uint32_t kNilIndex = 0xFFFFFFFFu;
  std::vector<ChunkCtx> chunk_ctx_;
  uint32_t chunk_free_ = kNilIndex;

  int inflight_ = 0;
  uint64_t rounds_ = 0;
  bool pumping_ = false;
  double max_carry_vops_ = 64.0;  // covers the dearest chunk (see ctor)
  std::unique_ptr<obs::SpanCollector> spans_;
};

}  // namespace libra::iosched

#endif  // LIBRA_SRC_IOSCHED_SCHEDULER_H_
