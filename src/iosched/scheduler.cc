#include "src/iosched/scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace libra::iosched {
namespace {

// Affordability slack for floating-point budget arithmetic.
constexpr double kEps = 1e-9;

// Cheapest plausible chunk (a 1KB read is ~1 VOP by construction); deficits
// at or below this cannot buy anything, so they do not hold a round open.
constexpr double kMinChunkCostVops = 1.0;

}  // namespace

IoScheduler::IoScheduler(sim::EventLoop& loop, ssd::SsdDevice& device,
                         std::unique_ptr<CostModel> cost_model,
                         SchedulerOptions options)
    : loop_(loop),
      device_(device),
      cost_model_(std::move(cost_model)),
      options_(options) {
  assert(cost_model_ != nullptr);
  assert(options_.queue_depth > 0);
  // Deficit carry headroom: must cover the most expensive single chunk
  // *under the active cost model* (classic DRR requires quantum+carry >=
  // max packet cost), or expensive ops would never become affordable and
  // their tenants would starve beyond what the model itself implies.
  const uint32_t max_chunk =
      options_.enable_chunking ? options_.chunk_bytes : 1024 * 1024;
  max_carry_vops_ = std::max(
      {64.0, cost_model_->Cost(ssd::IoType::kRead, max_chunk),
       cost_model_->Cost(ssd::IoType::kWrite, max_chunk)});
  if (options_.span_capacity > 0) {
    spans_ = std::make_unique<obs::SpanCollector>(options_.span_capacity,
                                                  options_.span_sample_every,
                                                  options_.span_id_seed);
  }
  chunk_ctx_.reserve(static_cast<size_t>(options_.queue_depth));
}

size_t IoScheduler::IndexBits::Next(size_t from) const {
  size_t w = from >> 6;
  if (w >= words_.size()) {
    return kNone;
  }
  uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
  while (word == 0) {
    if (++w == words_.size()) {
      return kNone;
    }
    word = words_[w];
  }
  return (w << 6) + static_cast<size_t>(std::countr_zero(word));
}

IoScheduler::Tenant* IoScheduler::FindTenant(TenantSlot slot) {
  const size_t i = SlotIndex(slot);
  return i < tenants_.size() && tenants_[i].lifecycle != nullptr
             ? &tenants_[i]
             : nullptr;
}

const IoScheduler::Tenant* IoScheduler::FindTenant(TenantSlot slot) const {
  const size_t i = SlotIndex(slot);
  return i < tenants_.size() && tenants_[i].lifecycle != nullptr
             ? &tenants_[i]
             : nullptr;
}

IoScheduler::Tenant& IoScheduler::GetTenant(TenantSlot slot) {
  const size_t i = SlotIndex(slot);
  if (i >= tenants_.size()) {
    tenants_.resize(i + 1);
  }
  Tenant& t = tenants_[i];
  if (t.lifecycle == nullptr) {
    t.lifecycle = std::make_unique<TenantLifecycleStats>();
  }
  return t;
}

void IoScheduler::SyncRanks() {
  const TenantSlots& reg = slots();
  if (ranked_slots_ == reg.size()) {
    return;
  }
  ranked_slots_ = reg.size();
  queued_.Clear(ranked_slots_);
  active_.Clear(ranked_slots_);
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    const size_t rank = RankOf(static_cast<TenantSlot>(i));
    if (!t.queue.empty()) {
      queued_.Set(rank);
    }
    if (t.active()) {
      active_.Set(rank);
    }
  }
}

const TenantLifecycleStats* IoScheduler::lifecycle(TenantId tenant) const {
  const Tenant* t = FindTenant(slots().Find(tenant));
  return t == nullptr ? nullptr : t->lifecycle.get();
}

void IoScheduler::SetAllocation(TenantSlot tenant, double vops_per_sec) {
  assert(vops_per_sec >= 0.0);
  GetTenant(tenant).allocation = vops_per_sec;
}

double IoScheduler::Allocation(TenantId tenant) const {
  const Tenant* t = FindTenant(slots().Find(tenant));
  return t == nullptr ? 0.0 : t->allocation;
}

sim::Task<void> IoScheduler::Read(const IoTag& tag, uint64_t offset,
                                  uint32_t size) {
  return Submit(tag, ssd::IoType::kRead, offset, size, {});
}

sim::Task<void> IoScheduler::Write(const IoTag& tag, uint64_t offset,
                                   uint32_t size) {
  return Submit(tag, ssd::IoType::kWrite, offset, size, {});
}

sim::Task<void> IoScheduler::WriteShared(uint64_t offset, uint32_t size,
                                         std::vector<IoShare> manifest) {
  assert(!manifest.empty());
  if (manifest.size() == 1) {
    // Degenerate batch of one: exactly a plain write.
    return Submit(manifest[0].tag, ssd::IoType::kWrite, offset, size, {});
  }
#ifndef NDEBUG
  uint64_t manifest_bytes = 0;
  for (const IoShare& s : manifest) {
    assert(s.tag.tenant != kInvalidTenant);
    assert(s.bytes > 0);
    manifest_bytes += s.bytes;
  }
  assert(manifest_bytes == size);
#endif
  const IoTag leader = manifest[0].tag;
  return Submit(leader, ssd::IoType::kWrite, offset, size,
                std::move(manifest));
}

IoScheduler::Op* IoScheduler::AllocOp(const IoTag& tag, ssd::IoType type,
                                      uint64_t offset, uint32_t size) {
  Op* op;
  if (!op_free_.empty()) {
    op = op_free_.back();
    op_free_.pop_back();
  } else {
    op_arena_.emplace_back();
    op = &op_arena_.back();
  }
  op->tag = tag;
  op->type = type;
  op->offset = offset;
  op->size = size;
  op->dispatched = 0;
  op->chunks_inflight = 0;
  op->chunks_total = 0;
  op->submit_time = loop_.Now();
  op->first_dispatch = 0;
  op->cost_accum = 0.0;
  op->done = nullptr;
  op->manifest.clear();
  return op;
}

void IoScheduler::FreeOp(Op* op) {
  op->done = nullptr;  // recycled Ops must never touch a stale OneShot
  op_free_.push_back(op);
}

sim::Task<void> IoScheduler::Submit(IoTag tag, ssd::IoType type,
                                    uint64_t offset, uint32_t size,
                                    std::vector<IoShare> manifest) {
  assert(tag.tenant != kInvalidTenant);
  sim::OneShot<bool> done(loop_);
  // Callers outside a node leave the slot to be resolved here; the op's
  // tag (and every manifest share) then carries it to the tracker.
  if (tag.slot == TenantSlot::kNone) {
    tag.slot = slots().Assign(tag.tenant);
  }
  for (IoShare& s : manifest) {
    if (s.tag.slot == TenantSlot::kNone) {
      s.tag.slot = slots().Assign(s.tag.tenant);
    }
  }
  SyncRanks();
  Tenant& tenant = GetTenant(tag.slot);  // auto-registers (allocation 0)
  if (size == 0) {
    // Zero-size IO: nothing to dispatch or charge. Completes immediately
    // with zero chunks; recorded in the lifecycle stats so callers can see
    // the (degenerate) op happened.
    tenant.lifecycle->Mutable(tag.app, tag.internal).RecordOp(0, 0, 0, 0);
    done.Set(true);
    co_await done.Wait();
    co_return;
  }
  Op* op = AllocOp(tag, type, offset, size);
  op->done = &done;
  op->manifest = std::move(manifest);
  const size_t rank = RankOf(tag.slot);
  if (!tenant.active()) {
    // Idle -> active: the busy period opens, and the idle clamp NewRound
    // skipped (see Tenant::idle_round) is owed if a round passed.
    assert(tenant.busy_since < 0);
    tenant.busy_since = loop_.Now();
    if (tenant.idle_round != rounds_) {
      tenant.deficit = std::min(tenant.deficit, 0.0);
    }
    active_.Set(rank);
  }
  if (tenant.queue.empty()) {
    queued_.Set(rank);
  }
  tenant.queue.push_back(op);
  Pump();
  co_await done.Wait();
}

uint32_t IoScheduler::NextChunkBytes(const Op& op) const {
  const uint32_t remaining = op.size - op.dispatched;
  if (!options_.enable_chunking) {
    return remaining;
  }
  return std::min(remaining, options_.chunk_bytes);
}

SimDuration IoScheduler::ConsumeDemandTime(TenantSlot tenant) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return 0;
  }
  const SimTime now = loop_.Now();
  if (t->busy_since >= 0) {
    t->busy_accum += now - t->busy_since;
    t->busy_since = now;
  }
  const SimDuration out = t->busy_accum;
  t->busy_accum = 0;
  return out;
}

bool IoScheduler::NewRound() {
  // Active tenants only, in id order: the same additions in the same order
  // as a scan over every tenant would make. Classic DRR also clamps each
  // idle tenant's deficit to min(deficit, 0) here (an idle tenant does not
  // hoard budget, which keeps the scheduler work-conserving; debt is kept);
  // Submit applies that clamp on reactivation instead.
  double weight_sum = 0.0;
  int active = 0;
  for (size_t i = active_.Next(0); i != IndexBits::kNone;
       i = active_.Next(i + 1)) {
    weight_sum += AtRank(i).allocation;
    ++active;
  }
  if (active == 0) {
    return false;
  }
  ++rounds_;
  for (size_t i = active_.Next(0); i != IndexBits::kNone;
       i = active_.Next(i + 1)) {
    Tenant& t = AtRank(i);
    // Weight-proportional quantum. With all-zero weights (only best-effort
    // tenants active) fall back to equal shares so the device never idles.
    const double share = weight_sum > 0.0
                             ? t.allocation / weight_sum
                             : 1.0 / static_cast<double>(active);
    const double quantum = share * options_.round_quantum_vops;
    t.deficit = std::min(t.deficit + quantum, quantum + max_carry_vops_);
  }
  return true;
}

uint32_t IoScheduler::AllocChunkCtx() {
  if (chunk_free_ != kNilIndex) {
    const uint32_t idx = chunk_free_;
    chunk_free_ = chunk_ctx_[idx].next_free;
    return idx;
  }
  chunk_ctx_.emplace_back();
  return static_cast<uint32_t>(chunk_ctx_.size() - 1);
}

void IoScheduler::DispatchChunk(Tenant& tenant) {
  // Pump, the only caller, synced the ranks.
  assert(!tenant.queue.empty());
  Op* op = tenant.queue.front();
  const uint32_t chunk = NextChunkBytes(*op);
  const double cost = cost_model_->Cost(op->type, chunk);
  tenant.deficit -= cost;
  const uint64_t chunk_offset = op->offset + op->dispatched;
  if (op->dispatched == 0) {
    // First chunk leaves the DRR queue: the queue-wait span ends here.
    op->first_dispatch = loop_.Now();
  }
  op->dispatched += chunk;
  ++op->chunks_inflight;
  ++op->chunks_total;
  ++tenant.chunks_inflight;
  ++inflight_;
  if (op->fully_dispatched()) {
    tenant.queue.pop_front();  // op stays alive in the pool until completion
    if (tenant.queue.empty()) {
      queued_.Reset(RankOf(op->tag.slot));
    }
  }

  const uint32_t ctx_idx = AllocChunkCtx();
  ChunkCtx& ctx = chunk_ctx_[ctx_idx];
  ctx.op = op;
  ctx.cost = cost;
  ctx.chunk = chunk;
  ctx.shares.clear();
  if (!op->manifest.empty()) {
    // Shared chunk: slice the manifest by this chunk's byte range and
    // pre-split the chunk's VOP cost byte-proportionally. All but the last
    // overlapping share take their byte fraction; the last takes the
    // remainder, so the slice costs reconstruct `cost` bit-for-bit.
    const uint64_t lo = chunk_offset - op->offset;
    const uint64_t hi = lo + chunk;
    uint64_t pos = 0;
    for (const IoShare& s : op->manifest) {
      const uint64_t s_lo = pos;
      pos += s.bytes;
      if (pos <= lo) {
        continue;
      }
      if (s_lo >= hi) {
        break;
      }
      const uint32_t overlap = static_cast<uint32_t>(std::min(pos, hi) -
                                                     std::max(s_lo, lo));
      ctx.shares.push_back({s.tag, overlap, 0.0});
    }
    assert(!ctx.shares.empty());
    double assigned = 0.0;
    for (size_t i = 0; i + 1 < ctx.shares.size(); ++i) {
      ctx.shares[i].cost = cost * (static_cast<double>(ctx.shares[i].bytes) /
                                   static_cast<double>(chunk));
      assigned += ctx.shares[i].cost;
    }
    ctx.shares.back().cost = cost - assigned;
  }
  device_.Submit(ssd::IoRequest{op->type, chunk_offset, chunk},
                 [this, ctx_idx] { OnChunkComplete(ctx_idx); });
}

void IoScheduler::OnChunkComplete(uint32_t index) {
  SyncRanks();
  // Record against the slot, copy the scalars out, then recycle it: the
  // Pump below may dispatch into it.
  ChunkCtx& slot = chunk_ctx_[index];
  Op* op = slot.op;
  const double cost = slot.cost;
  const uint32_t chunk = slot.chunk;
  if (slot.shares.empty()) {
    tracker_.RecordIo(op->tag, op->type, chunk, cost);
  } else {
    // Shared chunk: each contributor is charged its pre-split exact share.
    for (const ChunkShare& s : slot.shares) {
      tracker_.RecordIoShare(s.tag, op->type, s.bytes, s.cost);
    }
    slot.shares.clear();  // free-list invariant: recycled slots hold none
  }
  if (spans_ != nullptr) {
    op->cost_accum += cost;
  }
  slot.next_free = chunk_free_;
  chunk_free_ = index;

  --op->chunks_inflight;
  const TenantSlot tenant_slot = op->tag.slot;
  Tenant& t = tenants_[SlotIndex(tenant_slot)];  // never removed
  --t.chunks_inflight;
  if (op->fully_dispatched() && op->chunks_inflight == 0) {
    const SimTime now = loop_.Now();
    const uint64_t queue_wait =
        static_cast<uint64_t>(op->first_dispatch - op->submit_time);
    const uint64_t service =
        static_cast<uint64_t>(now - op->first_dispatch);
    t.lifecycle->Mutable(op->tag.app, op->tag.internal)
        .RecordOp(queue_wait, service, op->chunks_total, op->size);
    if (spans_ != nullptr) {
      EmitDeviceIoSpan(*op, now);
    }
    op->done->Set(true);
    FreeOp(op);  // last reference: recycle for the next Submit
  }
  if (!t.active()) {
    // Active -> idle. The Set above only posts the waiter's resume, so a
    // closed-loop tenant is idle here even if it resubmits at this instant:
    // its busy period closes now and reopens, zero time later, in that
    // Submit. The mark lets Submit tell whether a round passed meanwhile.
    assert(t.busy_since >= 0);
    t.busy_accum += loop_.Now() - t.busy_since;
    t.busy_since = -1;
    t.idle_round = rounds_;
    active_.Reset(RankOf(tenant_slot));
  }
  --inflight_;
  // Posted, not called: the Set above posted the waiter's resume first, so
  // a closed-loop worker resubmits before this Pump runs and does not look
  // idle to it (a round opened in that gap would clamp its budget). Its
  // Submit pumps by itself; this Pump covers completions nobody resubmits
  // after. A round that Submit's Pump opens while another same-instant
  // completer's resume is still queued does clamp that tenant, as a scan
  // of idle tenants would (Tenant::idle_round).
  loop_.Post([this] { Pump(); });
}

void IoScheduler::EmitDeviceIoSpan(const Op& op, SimTime now) {
  // Parent: the op's own context, or — for a shared op scheduled under an
  // untraced leader — the first traced manifest rider.
  TraceContext parent = op.tag.ctx;
  if (!parent.valid()) {
    for (const IoShare& s : op.manifest) {
      if (s.tag.ctx.valid()) {
        parent = s.tag.ctx;
        break;
      }
    }
    if (!parent.valid()) {
      return;  // nothing traced rode this op
    }
  }
  obs::SpanRecord rec;
  rec.trace_id = parent.trace_id;
  rec.span_id = spans_->MintChild(parent).span_id;
  rec.parent_span = parent.span_id;
  rec.kind = obs::SpanKind::kDeviceIo;
  rec.app = static_cast<uint8_t>(op.tag.app);
  rec.internal = static_cast<uint8_t>(op.tag.internal);
  rec.is_write = op.type == ssd::IoType::kWrite;
  rec.tenant = op.tag.tenant;
  rec.start_ns = op.submit_time;
  rec.end_ns = now;
  rec.queue_wait_ns = static_cast<uint64_t>(op.first_dispatch - op.submit_time);
  rec.bytes = op.size;
  rec.vops = op.cost_accum;
  // A group-committed IOP carries every rider's context: link the traced
  // ones beyond the parent so followers' traces reach this device IO.
  for (const IoShare& s : op.manifest) {
    if (s.tag.ctx.valid() && !(s.tag.ctx == parent)) {
      rec.links.Add(s.tag.ctx);
    }
  }
  spans_->Record(rec);
}

void IoScheduler::Pump() {
  if (pumping_) {
    return;
  }
  pumping_ = true;
  SyncRanks();
  // Bound successive budget refills within one pump so a queue whose head
  // chunk exceeds the deficit cap cannot spin the round counter.
  int refills_left = 8;
  // First queued tenant at an index in [from, to) whose deficit covers its
  // head chunk, or kNone.
  const auto first_affordable = [this](size_t from, size_t to) {
    for (size_t i = queued_.Next(from); i < to; i = queued_.Next(i + 1)) {
      const Tenant& t = AtRank(i);
      const Op& head = *t.queue.front();
      if (t.deficit + kEps >=
          cost_model_->Cost(head.type, NextChunkBytes(head))) {
        return i;
      }
    }
    return IndexBits::kNone;
  };
  while (inflight_ < options_.queue_depth) {
    // Rotate the ring from the cursor for an eligible (work + budget)
    // tenant: the queued tenants at or after the cursor, then the ones
    // before it, in id order.
    const size_t start =
        ring_cursor_ == TenantSlot::kNone ? 0 : RankOf(ring_cursor_);
    size_t pick = first_affordable(start, IndexBits::kNone);
    if (pick == IndexBits::kNone) {
      pick = first_affordable(0, start);
    }
    if (pick != IndexBits::kNone) {
      // DRR: keep serving this tenant while it stays eligible (the cursor
      // only moves past it when it runs out of budget or work).
      ring_cursor_ = slots().by_id()[pick].slot;
      DispatchChunk(AtRank(pick));
      continue;
    }

    const size_t first_queued = queued_.Next(0);
    if (first_queued == IndexBits::kNone) {
      break;  // nothing to dispatch
    }

    // The round stays open while some tenant still has usable budget and
    // in-flight work: its closed-loop workers will resubmit on completion,
    // and refilling now would let cheap-op tenants outrun their shares.
    bool holds_round_open = false;
    for (size_t i = active_.Next(0); i != IndexBits::kNone;
         i = active_.Next(i + 1)) {
      const Tenant& t = AtRank(i);
      if (t.queue.empty() && t.deficit > kMinChunkCostVops) {
        holds_round_open = true;  // active and not queued: chunks in flight
        break;
      }
    }
    if (holds_round_open) {
      break;  // a completion will re-enter Pump
    }

    if (refills_left-- <= 0 || !NewRound()) {
      // Refills exhausted or impossible: force the lowest-id queued tenant
      // into debt so the scheduler always makes progress (the debt is
      // repaid out of future quanta, preserving long-run proportions).
      DispatchChunk(AtRank(first_queued));
    }
  }
  pumping_ = false;
}

}  // namespace libra::iosched
