#include "src/kv/storage_node.h"

#include <cassert>
#include <optional>

#include "src/sim/sync.h"

namespace libra::kv {

using iosched::AppRequest;
using iosched::Reservation;
using iosched::TenantId;

// The scheduler's app-request vocabulary and the observability layer's
// attribution-matrix axis must stay in lockstep: per-class reservations,
// audit rows, and q̂^{a,i} columns are all indexed by the same codes.
static_assert(obs::kAttrApps == iosched::kNumAppRequests,
              "add new AppRequest classes to obs::kAttrApps too");

StorageNode::StorageNode(sim::EventLoop& loop, NodeOptions options)
    : loop_(loop),
      options_(std::move(options)),
      device_(loop_, options_.device_profile, options_.device_options),
      scheduler_(loop_, device_,
                 iosched::MakeCostModel(options_.cost_model,
                                        options_.calibration),
                 options_.scheduler_options),
      fs_(scheduler_, device_),
      capacity_(options_.capacity_floor_vops),
      policy_(loop_, scheduler_, capacity_, options_.policy_options) {
  assert(!options_.calibration.sizes_kb.empty() &&
         "NodeOptions.calibration must be populated (run ssd::Calibrate)");
  if (options_.enable_cache) {
    cache_ = std::make_unique<LruCache>(options_.cache_bytes);
  }
  if (options_.lsm_options.block_cache_bytes > 0) {
    // One cache, one budget, for every tenant partition on the node; the
    // partitions get it via TenantLsmOptions' shared_block_cache pointer.
    block_cache_ = std::make_unique<lsm::BlockCache>(
        options_.lsm_options.block_cache_bytes, /*cache_data=*/true);
  }
  if (options_.prefill_bytes > 0) {
    device_.Prefill(options_.prefill_bytes);
  }
}

namespace {

// Negative or non-finite rates are malformed; zero is legal (best-effort
// tenant, provisioned purely by work conservation). Checked per class so
// new app-request classes are validated without new code.
Status ValidateReservation(const Reservation& r) {
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    if (!(r.rps[a] >= 0.0)) {
      return Status::InvalidArgument(
          "reservation rates must be finite and non-negative (" +
          std::string(iosched::AppRequestName(static_cast<AppRequest>(a))) +
          "=" + std::to_string(r.rps[a]) + ")");
    }
  }
  return Status::Ok();
}

// Mints the node-level request span: a child of the caller's (cluster)
// span when one rode in, else a new root trace honoring 1/N sampling.
// Returns an invalid ctx when tracing is off or the request sampled out —
// every downstream layer then runs untraced.
struct RequestSpan {
  TraceContext ctx;
  uint64_t parent = 0;
};

RequestSpan BeginRequestSpan(obs::SpanCollector* spans, TraceContext caller) {
  RequestSpan r;
  if (spans == nullptr) {
    return r;
  }
  if (caller.valid()) {
    r.ctx = spans->MintChild(caller);
    r.parent = caller.span_id;
  } else {
    r.ctx = spans->MintTrace();
  }
  return r;
}

void EndRequestSpan(obs::SpanCollector* spans, const RequestSpan& r,
                    obs::SpanKind kind, AppRequest app, TenantId tenant,
                    SimTime start, SimTime end, uint64_t bytes,
                    TraceContext link = {}) {
  if (spans == nullptr || !r.ctx.valid()) {
    return;
  }
  obs::SpanRecord rec;
  rec.trace_id = r.ctx.trace_id;
  rec.span_id = r.ctx.span_id;
  rec.parent_span = r.parent;
  rec.kind = kind;
  rec.app = static_cast<uint8_t>(app);
  rec.tenant = tenant;
  rec.start_ns = start;
  rec.end_ns = end;
  rec.bytes = bytes;
  rec.links.Add(link);
  spans->Record(rec);
}

}  // namespace

lsm::LsmOptions StorageNode::TenantLsmOptions(TenantId tenant) const {
  lsm::LsmOptions opt = options_.lsm_options;
  opt.compaction_policy =
      static_cast<lsm::CompactionPolicy>(policy_.CompactionPolicyOf(tenant));
  if (block_cache_ != nullptr) {
    opt.shared_block_cache = block_cache_.get();
  }
  return opt;
}

Status StorageNode::AddTenant(TenantId tenant, Reservation reservation,
                              obs::DeclaredAttribution declared,
                              lsm::CompactionPolicy compaction) {
  if (HasTenant(tenant)) {
    return Status::AlreadyExists("tenant exists");
  }
  if (Status s = ValidateReservation(reservation); !s.ok()) {
    return s;
  }
  // Record the declared policy first: TenantLsmOptions reads it back, and
  // the resource policy stamps it on this tenant's audit rows.
  policy_.SetCompactionPolicy(tenant, static_cast<uint8_t>(compaction));
  std::unique_ptr<lsm::LsmDb> db;
  if (!crashed_) {
    db = std::make_unique<lsm::LsmDb>(loop_, fs_, scheduler_, tenant,
                                      "tenant_" + std::to_string(tenant),
                                      TenantLsmOptions(tenant));
    if (Status s = db->Open(); !s.ok()) {
      return s;
    }
  }
  const iosched::TenantSlot slot = scheduler_.slots().Assign(tenant);
  const size_t i = iosched::SlotIndex(slot);
  if (i >= partitions_.size()) {
    partitions_.resize(i + 1);
  }
  partitions_[i] = std::make_unique<Partition>();
  partitions_[i]->slot = slot;
  partitions_[i]->db = std::move(db);
  policy_.SetReservation(tenant, reservation);
  if (declared.declared) {
    policy_.SetDeclaredProfile(tenant, declared);
  }
  return Status::Ok();
}

Status StorageNode::UpdateReservation(TenantId tenant,
                                      Reservation reservation) {
  if (!HasTenant(tenant)) {
    return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  if (Status s = ValidateReservation(reservation); !s.ok()) {
    return s;
  }
  policy_.SetReservation(tenant, reservation);
  return Status::Ok();
}

void StorageNode::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  ++recovery_.crashes;
  // Remember whether the policy was running so Restart() doesn't resurrect
  // a periodic timer on a node that was never Start()ed (tests and
  // harnesses that drive provisioning manually rely on a draining Run()).
  policy_was_running_ = policy_.running();
  policy_.Stop();
  if (cache_ != nullptr) {
    cache_->Clear();  // RAM is lost with the process
  }
  for (const iosched::TenantSlots::Entry& e : scheduler_.slots().by_id()) {
    Partition* p = PartitionAt(e.slot);
    if (p != nullptr && p->db != nullptr) {
      p->db->Kill();
      graveyard_.push_back(std::move(p->db));
    }
  }
}

sim::Task<Status> StorageNode::Restart() {
  if (!crashed_) {
    co_return Status::FailedPrecondition("node is not crashed");
  }
  // Let every killed coroutine observe dead_ and unwind before the DBs
  // (whose members they reference) are destroyed.
  for (;;) {
    bool quiescent = true;
    for (const auto& db : graveyard_) {
      if (!db->Quiescent()) {
        quiescent = false;
        break;
      }
    }
    if (quiescent) {
      break;
    }
    co_await sim::SleepFor(loop_, kMillisecond);
  }
  // Destroying the dead incarnations drops their table handles, deleting
  // the installed SST files: with no manifest, the table metadata died
  // with the process, so flushed data is unrecoverable locally (the
  // cluster layer re-replicates it). WAL files survive on the fs.
  graveyard_.clear();
  crashed_ = false;
  // The policy kept every tenant's reservation and declared profile;
  // partitions_ kept the tenant set. Reopen each partition over its old
  // prefix — Open() replays the surviving WALs.
  for (const iosched::TenantSlots::Entry& e : scheduler_.slots().by_id()) {
    Partition* entry = PartitionAt(e.slot);
    if (entry == nullptr) {
      continue;
    }
    Partition& p = *entry;
    const TenantId tenant = e.id;
    auto db = std::make_unique<lsm::LsmDb>(loop_, fs_, scheduler_, tenant,
                                           "tenant_" + std::to_string(tenant),
                                           TenantLsmOptions(tenant));
    if (Status s = db->Open(); !s.ok()) {
      co_return s;
    }
    const lsm::LsmStats st = db->stats();
    recovery_.wal_files_replayed += st.recovered_wal_files;
    recovery_.replay_records += st.recovered_records;
    recovery_.replay_bytes += st.recovered_bytes;
    p.db = std::move(db);
  }
  ++recovery_.restarts;
  if (policy_was_running_) {
    policy_.Start();
  }
  co_return Status::Ok();
}

StorageNode::Partition* StorageNode::OpenPartition(TenantId tenant) {
  Partition* p = Registered(tenant);
  return p == nullptr || p->db == nullptr ? nullptr : p;
}

lsm::LsmDb* StorageNode::partition(TenantId tenant) {
  Partition* p = OpenPartition(tenant);
  return p == nullptr ? nullptr : p->db.get();
}

std::vector<TenantId> StorageNode::tenants() const {
  std::vector<TenantId> out;
  for (const iosched::TenantSlots::Entry& e : scheduler_.slots().by_id()) {
    const Partition* p = PartitionAt(e.slot);
    if (p != nullptr && p->db != nullptr) {
      out.push_back(e.id);
    }
  }
  return out;
}

sim::Task<Status> StorageNode::Write(TenantId tenant, const std::string& key,
                                     std::optional<std::string_view> value,
                                     TraceContext ctx) {
  if (crashed_) {
    co_return Status::Unavailable("node crashed");
  }
  Partition* p = OpenPartition(tenant);
  if (p == nullptr) {
    co_return Status::NotFound("unknown tenant");
  }
  // A DELETE is billed, traced and timed as a PUT of its key.
  const uint64_t bytes = value.has_value() ? value->size() : key.size();
  obs::SpanCollector* spans = scheduler_.spans();
  const RequestSpan span = BeginRequestSpan(spans, ctx);
  const SimTime start = loop_.Now();
  // A named task: GCC 12 miscompiles co_await on a conditional expression
  // whose arms are task prvalues.
  sim::Task<Status> write = value.has_value()
                                ? p->db->Put(key, *value, span.ctx)
                                : p->db->Delete(key, span.ctx);
  Status s = co_await std::move(write);
  p->put_latency.Record(static_cast<uint64_t>(loop_.Now() - start));
  if (s.ok()) {
    // Normalized app-request accounting happens at the protocol layer
    // (§2.2): reservations are in size-normalized 1KB requests, and every
    // request (traced or not) lands in the q̂ denominator.
    tracker().RecordAppRequest(p->slot, AppRequest::kPut, bytes);
    if (cache_ != nullptr) {
      if (value.has_value()) {
        cache_->Put(p->slot, key, std::string(*value));  // write-through
      } else {
        cache_->Erase(p->slot, key);
      }
    }
  }
  EndRequestSpan(spans, span, obs::SpanKind::kRequest, AppRequest::kPut,
                 tenant, start, loop_.Now(), bytes);
  co_return s;
}

sim::Task<Result<std::string>> StorageNode::Get(TenantId tenant,
                                                const std::string& key,
                                                TraceContext ctx) {
  if (crashed_) {
    co_return Result<std::string>(Status::Unavailable("node crashed"));
  }
  Partition* p = OpenPartition(tenant);
  if (p == nullptr) {
    co_return Result<std::string>(Status::NotFound("unknown tenant"));
  }
  obs::SpanCollector* spans = scheduler_.spans();
  const RequestSpan span = BeginRequestSpan(spans, ctx);
  const SimTime start = loop_.Now();
  if (cache_ != nullptr) {
    if (auto hit = cache_->Get(p->slot, key); hit.has_value()) {
      Result<std::string> out(std::move(*hit));
      // Cache hits consume no IO; they still count as served requests.
      tracker().RecordAppRequest(p->slot, AppRequest::kGet,
                                 out.value().size());
      p->get_latency.Record(static_cast<uint64_t>(loop_.Now() - start));
      EndRequestSpan(spans, span, obs::SpanKind::kRequest, AppRequest::kGet,
                     tenant, start, loop_.Now(), out.value().size());
      co_return out;
    }
  }
  // With read coalescing on, this request either rides an in-flight
  // lookup of the same key (follower) or claims the flight (leader).
  const bool coalesce = options_.enable_read_coalescing;
  std::pair<iosched::TenantSlot, std::string> flight_key;
  if (coalesce) {
    flight_key = {p->slot, key};
    const auto it = inflight_gets_.find(flight_key);
    if (it != inflight_gets_.end()) {
      // Follower: ride the leader's in-flight lookup. The request is still
      // individually billed and its latency recorded — only the IO is
      // shared. Its span links the leader's lookup it rode.
      ++coalesced_gets_;
      const TraceContext leader_ctx = it->second.leader_ctx;
      sim::OneShot<Result<std::string>> done(loop_);
      it->second.waiters.push_back(&done);
      Result<std::string> out = co_await done.Wait();
      const uint64_t billed = out.ok() ? out.value().size() : 1;
      tracker().RecordAppRequest(p->slot, AppRequest::kGet, billed);
      p->get_latency.Record(static_cast<uint64_t>(loop_.Now() - start));
      EndRequestSpan(spans, span, obs::SpanKind::kCoalescedGet,
                     AppRequest::kGet, tenant, start, loop_.Now(), billed,
                     leader_ctx);
      co_return out;
    }
    // Leader: claim the flight for the lookup below.
    inflight_gets_.emplace(flight_key, GetFlight{span.ctx, {}});
  }
  lsm::LsmDb::GetResult r = co_await p->db->Get(key, span.ctx);
  Result<std::string> out(std::move(r.status), std::move(r.value));
  if (coalesce) {
    // Resolve everyone who joined the flight meanwhile. Detach the waiter
    // list first: a resumed follower may immediately issue the same key
    // again and must start a fresh flight.
    auto flight = inflight_gets_.extract(flight_key);
    for (sim::OneShot<Result<std::string>>* w : flight.mapped().waiters) {
      w->Set(out);
    }
  }
  const uint64_t billed = out.ok() ? out.value().size() : 1;
  tracker().RecordAppRequest(p->slot, AppRequest::kGet, billed);
  p->get_latency.Record(static_cast<uint64_t>(loop_.Now() - start));
  if (out.ok() && cache_ != nullptr) {
    cache_->Put(p->slot, key, out.value());
  }
  EndRequestSpan(spans, span, obs::SpanKind::kRequest, AppRequest::kGet,
                 tenant, start, loop_.Now(), billed);
  co_return out;
}

sim::Task<lsm::LsmDb::ScanResult> StorageNode::Scan(TenantId tenant,
                                                    const std::string& start,
                                                    const std::string& end,
                                                    size_t limit,
                                                    TraceContext ctx) {
  if (crashed_) {
    lsm::LsmDb::ScanResult out;
    out.status = Status::Unavailable("node crashed");
    co_return out;
  }
  Partition* p = OpenPartition(tenant);
  if (p == nullptr) {
    lsm::LsmDb::ScanResult out;
    out.status = Status::NotFound("unknown tenant");
    co_return out;
  }
  obs::SpanCollector* spans = scheduler_.spans();
  const RequestSpan span = BeginRequestSpan(spans, ctx);
  const SimTime start_time = loop_.Now();
  // Scans bypass the object cache: the merge must see a consistent ordered
  // cut of the tree, which point-lookup cache entries cannot provide.
  lsm::LsmDb::ScanResult out =
      co_await p->db->Scan(start, end, limit, span.ctx);
  uint64_t billed = 0;
  if (out.status.ok()) {
    for (const auto& [key, value] : out.entries) {
      billed += value.size();
    }
    // An empty or failed range still did index/seek work: bill at least
    // one normalized request, mirroring GET's not-found billing.
    if (billed == 0) {
      billed = 1;
    }
    tracker().RecordAppRequest(p->slot, AppRequest::kScan, billed);
  }
  p->scan_latency.Record(static_cast<uint64_t>(loop_.Now() - start_time));
  EndRequestSpan(spans, span, obs::SpanKind::kRequest, AppRequest::kScan,
                 tenant, start_time, loop_.Now(), billed);
  co_return out;
}

NodeStats StorageNode::Snapshot() const {
  NodeStats s;
  s.time_ns = loop_.Now();
  s.device = device_.stats();
  s.capacity_floor_vops = capacity_.provisionable();
  s.capacity_estimate_vops = capacity_.current_estimate();
  s.scheduler_rounds = scheduler_.rounds();
  if (const obs::SpanCollector* sc = scheduler_.spans(); sc != nullptr) {
    s.spans.enabled = true;
    s.spans.capacity = sc->capacity();
    s.spans.recorded = sc->total_recorded();
    s.spans.dropped = sc->dropped();
    s.spans.minted_traces = sc->minted_traces();
    s.spans.sampled_out = sc->sampled_out();
    s.spans.sample_every = sc->sample_every();
  }
  if (cache_ != nullptr) {
    s.object_cache.enabled = true;
    s.object_cache.hits = cache_->hits();
    s.object_cache.misses = cache_->misses();
    s.object_cache.evictions = cache_->evictions();
    s.object_cache.resident_bytes = cache_->size_bytes();
    s.object_cache.entries = cache_->entries();
  }
  if (block_cache_ != nullptr) {
    s.block_cache.enabled = true;
    s.block_cache.capacity_bytes = block_cache_->capacity_bytes();
    s.block_cache.resident_bytes = block_cache_->resident_bytes();
    s.block_cache.entries = block_cache_->entries();
    s.block_cache.hits = block_cache_->hits();
    s.block_cache.misses = block_cache_->misses();
    s.block_cache.evictions = block_cache_->evictions();
  }
  s.coalesced_gets = coalesced_gets_;
  s.recovery = recovery_;
  for (const iosched::TenantSlots::Entry& e : scheduler_.slots().by_id()) {
    const Partition* entry = PartitionAt(e.slot);
    if (entry == nullptr) {
      continue;
    }
    const Partition& p = *entry;
    const TenantId tenant = e.id;
    for (const ssd::IoType type : {ssd::IoType::kRead, ssd::IoType::kWrite}) {
      s.recovery.rereplication_vops += scheduler_.tracker().VopsBy(
          p.slot, AppRequest::kPut, iosched::InternalOp::kReplicate, type);
    }
    if (p.db == nullptr) {
      continue;  // crashed: no partition to report
    }
    TenantSnapshot t;
    t.tenant = tenant;
    t.reservation = policy_.GetReservation(tenant);
    t.allocation_vops = scheduler_.Allocation(tenant);
    t.get_latency = p.get_latency;
    t.put_latency = p.put_latency;
    t.scan_latency = p.scan_latency;
    t.compaction_policy = policy_.CompactionPolicyOf(tenant);
    if (const iosched::TenantLifecycleStats* lc = scheduler_.lifecycle(tenant);
        lc != nullptr) {
      t.io_total = lc->Aggregate();
      for (int a = 0; a < iosched::kNumAppRequests; ++a) {
        for (int i = 0; i < iosched::kNumInternalOps; ++i) {
          const obs::IoClassStats* c = lc->cls[a][i].get();
          if (c == nullptr || c->ops == 0) {
            continue;
          }
          t.io_classes.push_back(IoClassSnapshot{
              static_cast<AppRequest>(a), static_cast<iosched::InternalOp>(i),
              *c});
        }
      }
    }
    t.lsm = p.db->stats();
    if (const std::optional<obs::AttributionMatrix> m =
            scheduler_.tracker().Attribution(p.slot)) {
      t.attribution.observed = true;
      t.attribution.matrix = *m;
    }
    t.attribution.declared = policy_.DeclaredOf(tenant);
    t.attribution.tolerance = options_.attribution_tolerance;
    if (t.attribution.observed && t.attribution.declared.declared) {
      t.attribution.report = obs::CompareAttribution(t.attribution.matrix,
                                                     t.attribution.declared);
      t.attribution.conformant =
          t.attribution.report.conformant(options_.attribution_tolerance);
    }
    if (const obs::SlaMonitor::TenantSla* sl = policy_.sla().OfSlot(
            static_cast<uint32_t>(iosched::SlotIndex(p.slot)));
        sl != nullptr) {
      t.sla.tracked = true;
      t.sla.sla = *sl;
    }
    s.tenants.push_back(std::move(t));
  }
  const auto& records = policy_.audit_log().records();
  s.audit.assign(records.begin(), records.end());
  return s;
}

}  // namespace libra::kv
