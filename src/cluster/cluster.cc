#include "src/cluster/cluster.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <span>
#include <utility>

#include "src/cluster/global_provisioner.h"
#include "src/sim/sync.h"

namespace libra::cluster {

using iosched::AppRequest;
using iosched::Reservation;
using iosched::TenantId;

namespace {

// Poll cadence for shard gates (migration drain / routing suspension).
// Simulated time, so the only cost is a handful of extra events.
constexpr SimDuration kGatePoll = 200 * kMicrosecond;

Status ValidateGlobal(const GlobalReservation& r) {
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    const auto app = static_cast<AppRequest>(a);
    if (!(r.RateOf(app) >= 0.0)) {
      return Status::InvalidArgument(
          "global reservation rates must be finite and non-negative (" +
          std::string(iosched::AppRequestName(app)) +
          "=" + std::to_string(r.RateOf(app)) + ")");
    }
  }
  return Status::Ok();
}

}  // namespace

// --- TenantHandle ---

// The retry loop shared by Put/Delete/Get: bounded attempts with
// exponential backoff on kUnavailable, under an optional per-request
// deadline. Returning `true` means "retry"; `false` means give up — the
// caller surfaces either the last underlying error (budget exhausted) or
// kDeadlineExceeded via `deadline_hit` (so a request against a dead
// cluster fails deterministically instead of hanging). The sleep is
// clamped so the deadline is never overshot.
namespace {

struct RetryState {
  const RetryPolicy* policy;
  sim::EventLoop* loop;
  SimTime deadline = 0;  // absolute; 0 = unbounded
  SimDuration backoff = 0;
  int attempt = 0;
  bool deadline_hit = false;

  RetryState(const RetryPolicy& p, sim::EventLoop& l)
      : policy(&p),
        loop(&l),
        deadline(p.deadline > 0 ? l.Now() + p.deadline : 0),
        backoff(p.initial_backoff) {}

  bool Exhausted(const Status& s) {
    if (s.code() != StatusCode::kUnavailable) {
      return true;  // success or a non-retryable error
    }
    if (attempt >= policy->max_retries) {
      return true;  // budget exhausted: caller surfaces `s` itself
    }
    if (deadline != 0 && loop->Now() >= deadline) {
      deadline_hit = true;
      return true;
    }
    return false;
  }

  sim::Task<void> Backoff() {
    ++attempt;
    SimDuration sleep = backoff;
    if (deadline != 0) {
      const SimDuration remaining = deadline - loop->Now();
      sleep = std::min(sleep, remaining);
    }
    if (sleep > 0) {
      co_await sim::SleepFor(*loop, sleep);
    }
    backoff = static_cast<SimDuration>(static_cast<double>(backoff) *
                                       policy->backoff_multiplier);
  }

  Status DeadlineError(const Status& last) const {
    return Status::DeadlineExceeded(
        "deadline exceeded after " + std::to_string(attempt + 1) +
        " attempt(s); last error: " + last.message());
  }
};

}  // namespace

sim::Task<Status> TenantHandle::Write(const std::string& key,
                                      std::optional<std::string_view> value) {
  if (!valid()) {
    co_return Status::FailedPrecondition("invalid tenant handle");
  }
  RetryState retry(cluster_->options_.retry, cluster_->loop_);
  for (;;) {
    Status s = co_await cluster_->Write(index_, key,
                                        std::optional<std::string>(value));
    if (retry.Exhausted(s)) {
      co_return retry.deadline_hit ? retry.DeadlineError(s) : s;
    }
    co_await retry.Backoff();
  }
}

sim::Task<Result<std::string>> TenantHandle::Get(const std::string& key) {
  if (!valid()) {
    co_return Result<std::string>(
        Status::FailedPrecondition("invalid tenant handle"));
  }
  RetryState retry(cluster_->options_.retry, cluster_->loop_);
  for (;;) {
    Result<std::string> r = co_await cluster_->Get(index_, key);
    if (retry.Exhausted(r.status())) {
      co_return retry.deadline_hit
          ? Result<std::string>(retry.DeadlineError(r.status()))
          : r;
    }
    co_await retry.Backoff();
  }
}

namespace {

// Arguments by value: the coroutine frame must own the key for its whole
// lifetime (the caller's loop variable dies before completion).
sim::Task<void> GetInto(TenantHandle handle, std::string key,
                        Result<std::string>* out) {
  *out = co_await handle.Get(key);
}

sim::Task<void> NodeGetInto(kv::StorageNode* node, TenantId tenant,
                            std::string key, TraceContext ctx,
                            Result<std::string>* out) {
  *out = co_await node->Get(tenant, key, ctx);
}

TraceContext MintTrace(obs::SpanCollector* spans) {
  return spans != nullptr ? spans->MintTrace() : TraceContext{};
}

// Records the cluster-layer root span of one routed request (no-op when
// tracing is off or the request sampled out).
void RecordClientSpan(obs::SpanCollector* spans, const TraceContext& ctx,
                      AppRequest app, TenantId tenant, SimTime start,
                      SimTime end, uint64_t bytes) {
  if (spans == nullptr || !ctx.valid()) {
    return;
  }
  obs::SpanRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.span_id = ctx.span_id;
  rec.kind = obs::SpanKind::kClientRequest;
  rec.app = static_cast<uint8_t>(app);
  rec.tenant = tenant;
  rec.start_ns = start;
  rec.end_ns = end;
  rec.bytes = bytes;
  spans->Record(rec);
}

}  // namespace

sim::Task<std::vector<Result<std::string>>> TenantHandle::MultiGet(
    const std::vector<std::string>& keys) {
  std::vector<Result<std::string>> out(keys.size());
  if (!valid()) {
    for (auto& r : out) {
      r = Result<std::string>(
          Status::FailedPrecondition("invalid tenant handle"));
    }
    co_return out;
  }
  if (cluster_->options_.batch_multiget) {
    // Group same-slot keys so each slot is routed (and migration-gated)
    // once; groups on different slots still proceed concurrently, as do
    // the lookups within a group once routed.
    std::map<int, std::vector<std::pair<size_t, std::string>>> by_slot;
    for (size_t i = 0; i < keys.size(); ++i) {
      by_slot[cluster_->shard_map_.SlotOfKey(keys[i])].emplace_back(i,
                                                                    keys[i]);
    }
    sim::TaskGroup batched(cluster_->loop_);
    for (auto& [slot, group_keys] : by_slot) {
      batched.Spawn(cluster_->MultiGetSlotGroup(index_, slot,
                                                std::move(group_keys), &out));
    }
    co_await batched.Join();
    co_return out;
  }
  // Fan out: every lookup is its own coroutine, so keys on different nodes
  // (and different shards of the same node) proceed concurrently; results
  // land in `keys` order regardless of completion order.
  sim::TaskGroup group(cluster_->loop_);
  for (size_t i = 0; i < keys.size(); ++i) {
    group.Spawn(GetInto(*this, keys[i], &out[i]));
  }
  co_await group.Join();
  co_return out;
}

sim::Task<Result<ScanEntries>> TenantHandle::Scan(const std::string& start,
                                                  const std::string& end,
                                                  size_t limit) {
  if (!valid()) {
    co_return Result<ScanEntries>(
        Status::FailedPrecondition("invalid tenant handle"));
  }
  RetryState retry(cluster_->options_.retry, cluster_->loop_);
  for (;;) {
    Result<ScanEntries> r =
        co_await cluster_->Scan(index_, start, end, limit);
    if (retry.Exhausted(r.status())) {
      co_return retry.deadline_hit
          ? Result<ScanEntries>(retry.DeadlineError(r.status()))
          : r;
    }
    co_await retry.Backoff();
  }
}

// --- Cluster ---

Cluster::Cluster(sim::MultiLoop& engine, ClusterOptions options)
    : engine_(engine),
      loop_(engine.loop(0)),
      options_(std::move(options)),
      shard_map_(ShardMapOptions{options_.num_nodes,
                                 options_.shards_per_tenant,
                                 options_.vnodes_per_node,
                                 options_.placement_seed,
                                 options_.replication_factor}) {
  assert(options_.num_nodes > 0);
  assert(options_.replication_factor >= 1);
  assert(engine.num_loops() == options_.num_nodes + 1 &&
         "the cluster needs one loop per node plus the coordinator");
  assert(options_.rpc_latency >= engine.lookahead() &&
         "rpc_latency below the engine lookahead would break conservative "
         "synchronization");
  node_state_.assign(static_cast<size_t>(options_.num_nodes), NodeState{});
  repl_.assign(static_cast<size_t>(options_.num_nodes), ReplTelemetry{});
  nodes_.reserve(options_.num_nodes);
  for (int i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<kv::StorageNode>(
        engine.loop(NodeLoopIndex(i)), options_.node_options));
    // Namespace each node's minted trace/span ids so a merged cluster
    // export never collides across nodes (and stays deterministic).
    if (obs::SpanCollector* spans = nodes_.back()->scheduler().spans();
        spans != nullptr) {
      spans->SeedIds(static_cast<uint64_t>(i) + 1);
    }
  }
  if (options_.node_options.scheduler_options.span_capacity > 0) {
    client_spans_ = std::make_unique<obs::SpanCollector>(
        options_.node_options.scheduler_options.span_capacity,
        options_.node_options.scheduler_options.span_sample_every);
    client_spans_->SeedIds(static_cast<uint64_t>(options_.num_nodes) + 1);
  }
  provisioner_ = std::make_unique<GlobalProvisioner>(loop_, *this,
                                                     options_.provisioner);
}

Cluster::~Cluster() = default;

void Cluster::Start() {
  for (auto& n : nodes_) {
    n->Start();
  }
  provisioner_->Start();
}

void Cluster::Stop() {
  provisioner_->Stop();
  for (auto& n : nodes_) {
    n->Stop();
  }
}

// --- cross-node seam ---
//
// The server half runs detached on the node's loop; the response message
// runs on the coordinator loop and completes the caller's OneShot there, so
// the OneShot (like all routing state) is touched only by the coordinator.

template <typename T, typename Fn, typename... Args>
sim::Task<T> Cluster::OnNode(int node, SimDuration request_delay, Fn fn,
                             Args... args) {
  sim::OneShot<T> done(loop_);
  engine_.Send(0, NodeLoopIndex(node), request_delay,
               [this, node, &done, fn, ... args = std::move(args)]() mutable {
                 sim::Detach(Serve(node, &done, fn, std::move(args)...));
               });
  co_return co_await done.Wait();
}

template <typename T, typename Fn, typename... Args>
sim::Task<void> Cluster::Serve(int node, sim::OneShot<T>* done, Fn fn,
                               Args... args) {
  T result = co_await std::invoke(fn, std::move(args)...);
  engine_.Send(NodeLoopIndex(node), 0, options_.rpc_latency,
               [done, result = std::move(result)]() mutable {
                 done->Set(std::move(result));
               });
}

template <typename Fn>
void Cluster::Post(int node, Fn fn) {
  kv::StorageNode* n = nodes_[node].get();
  engine_.Send(0, NodeLoopIndex(node), options_.rpc_latency,
               [n, fn = std::move(fn)]() mutable { fn(*n); });
}

std::optional<SimDuration> Cluster::RequestLeg(TenantId tenant, int node) {
  if (rpc_faults_ == nullptr) {
    return options_.rpc_latency;
  }
  const RpcFault f = rpc_faults_->OnRpc(tenant, node);
  if (f.drop) {
    return std::nullopt;
  }
  return f.delay > 0 ? f.delay : options_.rpc_latency;
}

sim::Task<std::vector<Result<std::string>>> Cluster::MultiGetOn(
    int node, TenantId tenant, std::vector<std::string> keys,
    TraceContext ctx) {
  std::vector<Result<std::string>> results(keys.size());
  sim::TaskGroup group(engine_.loop(NodeLoopIndex(node)));
  for (size_t i = 0; i < keys.size(); ++i) {
    group.Spawn(
        NodeGetInto(nodes_[node].get(), tenant, keys[i], ctx, &results[i]));
  }
  co_await group.Join();
  co_return results;
}

sim::Task<Result<ScanEntries>> Cluster::ScanSlotsOn(int node, TenantId tenant,
                                                    std::vector<int> slots,
                                                    iosched::IoTag tag,
                                                    const char* missing_msg) {
  lsm::LsmDb* db = nodes_[node]->partition(tenant);
  if (db == nullptr) {
    co_return Result<ScanEntries>(Status::Internal(missing_msg));
  }
  ScanEntries entries;
  // ShardMap::SlotOfKey is a pure hash of the key (no placement state), so
  // calling it from the node's thread is safe.
  Status scan = co_await db->ScanLive(
      tag, [&](std::string_view k, std::string_view v) {
        const int slot = shard_map_.SlotOfKey(k);
        if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
          entries.emplace_back(std::string(k), std::string(v));
        }
      });
  if (!scan.ok()) {
    co_return Result<ScanEntries>(std::move(scan));
  }
  co_return Result<ScanEntries>(std::move(entries));
}

sim::Task<Cluster::ApplyResult> Cluster::ApplyOpsOn(int node, TenantId tenant,
                                                   WriteOps ops,
                                                   TraceContext ctx,
                                                   iosched::InternalOp op,
                                                   const char* missing_msg) {
  ApplyResult result;
  lsm::LsmDb* db = nodes_[node]->partition(tenant);
  if (db == nullptr) {
    result.status = Status::Internal(missing_msg);
    co_return result;
  }
  for (const auto& [k, v] : ops) {
    // A named task: GCC 12 miscompiles co_await on a conditional expression
    // whose arms are task prvalues.
    sim::Task<Status> write =
        v.has_value() ? db->Put(k, *v, ctx, op) : db->Delete(k, ctx, op);
    if (Status s = co_await std::move(write); !s.ok()) {
      result.status = std::move(s);
      co_return result;
    }
    if (v.has_value()) {
      ++result.puts_applied;
      result.put_key_bytes += k.size();
      result.put_value_bytes += v->size();
    }
  }
  co_return result;
}

Cluster::TenantState* Cluster::Find(TenantId tenant) {
  const iosched::TenantSlot index = index_.Find(tenant);
  return index == iosched::TenantSlot::kNone ? nullptr : &At(index);
}

const Cluster::TenantState* Cluster::Find(TenantId tenant) const {
  const iosched::TenantSlot index = index_.Find(tenant);
  return index == iosched::TenantSlot::kNone
             ? nullptr
             : &tenants_[iosched::SlotIndex(index)];
}

void Cluster::PlaceSlot(TenantState& state, int slot, int leader) {
  state.shards[slot].replicas = shard_map_.ReplicasOf(state.id, slot, leader);
  for (HostRow& h : state.hosts) {
    h.slots = 0;
  }
  for (const ShardState& ss : state.shards) {
    for (const int node : ss.replicas) {
      auto it = std::lower_bound(
          state.hosts.begin(), state.hosts.end(), node,
          [](const HostRow& h, int n) { return h.node < n; });
      if (it == state.hosts.end() || it->node != node) {
        HostRow row;
        row.node = node;
        it = state.hosts.insert(it, row);
      }
      ++it->slots;
    }
  }
}

Cluster::SlotGate::SlotGate(sim::EventLoop& loop, TenantState& state,
                            std::span<const int> slots, int* active)
    : loop_(loop), state_(state), slots_(slots), active_(active) {
  if (active_ != nullptr) {
    ++*active_;
  }
}

Cluster::SlotGate::~SlotGate() {
  for (size_t i = 0; i < closed_; ++i) {
    state_.shards[slots_[i]].migrating = false;
  }
  if (active_ != nullptr) {
    --*active_;
  }
}

sim::Task<void> Cluster::SlotGate::Close() {
  for (const int slot : slots_) {
    ShardState& ss = state_.shards[slot];
    while (ss.migrating) {
      co_await sim::SleepFor(loop_, kGatePoll);
    }
    ss.migrating = true;
    ++closed_;
  }
  for (;;) {
    int inflight = 0;
    for (const int slot : slots_) {
      inflight += state_.shards[slot].inflight;
    }
    if (inflight == 0) {
      break;
    }
    co_await sim::SleepFor(loop_, kGatePoll);
  }
}

void Cluster::NodeEnsureTenant(int node, const TenantState& state) {
  const TenantId tenant = state.id;
  const lsm::CompactionPolicy compaction = state.compaction;
  const obs::DeclaredAttribution declared = state.declared;
  Post(node, [tenant, compaction, declared](kv::StorageNode& n) {
    if (!n.HasTenant(tenant)) {
      (void)n.AddTenant(tenant, Reservation{}, declared, compaction);
    }
  });
}

void Cluster::NodeInstallReservation(int node, const TenantState& state,
                                     Reservation share) {
  const TenantId tenant = state.id;
  const lsm::CompactionPolicy compaction = state.compaction;
  const obs::DeclaredAttribution declared = state.declared;
  Post(node, [tenant, share, compaction, declared](kv::StorageNode& n) {
    if (n.HasTenant(tenant)) {
      (void)n.UpdateReservation(tenant, share);
    } else {
      (void)n.AddTenant(tenant, share, declared, compaction);
    }
  });
}

void Cluster::NodeZeroReservation(int node, TenantId tenant) {
  Post(node, [tenant](kv::StorageNode& n) {
    if (n.HasTenant(tenant)) {
      (void)n.UpdateReservation(tenant, Reservation{});
    }
  });
}

void Cluster::NodeRecordReplTrigger(int node, TenantId tenant) {
  Post(node, [tenant](kv::StorageNode& n) {
    n.tracker().RecordTrigger(tenant, AppRequest::kPut,
                              iosched::InternalOp::kReplicate);
  });
}

void Cluster::NodeRecordReplDone(int node, TenantId tenant) {
  Post(node, [tenant](kv::StorageNode& n) {
    n.tracker().RecordInternalOpDone(tenant, iosched::InternalOp::kReplicate);
  });
}

double Cluster::AdmissionPrice(AppRequest app) const {
  // Direct cost of one normalized (1KB) request under the shared cost
  // model; headroom stands in for amplification unobservable at admission.
  const auto& model = nodes_[0]->scheduler().cost_model();
  ssd::IoType type = ssd::IoType::kRead;
  switch (app) {
    case AppRequest::kNone:  // unpriced class; priced as a read if asked
    case AppRequest::kGet:
    case AppRequest::kScan:  // scans are read IO per normalized request
      type = ssd::IoType::kRead;
      break;
    case AppRequest::kPut:
      type = ssd::IoType::kWrite;
      break;
  }
  return model.Cost(type, 1024) * options_.admission_headroom;
}

double Cluster::PricedVops(const Reservation& r) const {
  double total = 0.0;
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    const auto app = static_cast<AppRequest>(a);
    total += r.RateOf(app) * AdmissionPrice(app);
  }
  return total;
}

std::map<int, Reservation> Cluster::EvenSplit(
    const TenantState& state, const GlobalReservation& global) const {
  // Split over *alive* hosting nodes, weighted by hosted slot replicas.
  // A crashed node earns no share — its mass moves to the survivors — and
  // the denominator is the alive slot-replica count so the shares still
  // sum to 1 (at RF=1 with every node up this is shards_per_tenant, the
  // pre-replication behavior).
  std::map<int, Reservation> split;
  double total = 0.0;
  int last_node = -1;
  for (const HostRow& h : state.hosts) {
    if (h.slots > 0 && node_state_[h.node].alive) {
      last_node = h.node;
      total += static_cast<double>(h.slots);
    }
  }
  if (last_node < 0) {
    return split;  // every hosting node is down
  }
  double used[iosched::kNumAppRequests] = {};
  for (const HostRow& h : state.hosts) {
    const int n = h.node;
    if (h.slots == 0 || !node_state_[n].alive) {
      continue;
    }
    Reservation r;
    if (n == last_node) {
      // Exact-sum invariant: the last hosting node takes the remainder.
      for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests;
           ++a) {
        r.rps[a] = global.rps[a] - used[a];
      }
    } else {
      const double share = static_cast<double>(h.slots) / total;
      for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests;
           ++a) {
        r.rps[a] = global.rps[a] * share;
        used[a] += r.rps[a];
      }
    }
    split[n] = r;
  }
  return split;
}

Status Cluster::CheckAdmission(
    TenantId tenant, const std::map<int, Reservation>& split) const {
  if (!options_.admission_enabled) {
    return Status::Ok();
  }
  for (const auto& [n, share] : split) {
    double provisioned = 0.0;
    for (const iosched::TenantSlots::Entry& e : index_.by_id()) {
      if (e.id == tenant) {
        continue;
      }
      const TenantState& state = tenants_[iosched::SlotIndex(e.slot)];
      if (const auto it = state.split.find(n); it != state.split.end()) {
        provisioned += PricedVops(it->second);
      }
    }
    const double incoming = PricedVops(share);
    const double budget =
        options_.admission_utilization * nodes_[n]->capacity().provisionable();
    if (provisioned + incoming > budget) {
      return Status::ResourceExhausted(
          "admission rejected: node " + std::to_string(n) + " would carry " +
          std::to_string(provisioned + incoming) + " VOP/s (" +
          std::to_string(provisioned) + " provisioned + " +
          std::to_string(incoming) + " for tenant " + std::to_string(tenant) +
          "), over " + std::to_string(budget) + " = " +
          std::to_string(options_.admission_utilization) +
          " * capacity floor " +
          std::to_string(nodes_[n]->capacity().provisionable()));
    }
  }
  return Status::Ok();
}

void Cluster::ApplySplit(TenantState& state,
                         const std::map<int, Reservation>& split) {
  // Nodes that dropped out of the split (all slots migrated away) fall back
  // to a zero local reservation: the partition still exists and may hold
  // tombstones, but earns no provisioned VOPs.
  for (const auto& [n, old_share] : state.split) {
    if (!node_state_[n].alive) {
      continue;  // dead node: its policy is stopped; resplit covers it later
    }
    if (split.count(n) == 0) {
      NodeZeroReservation(n, state.id);
    }
  }
  for (const auto& [n, share] : split) {
    NodeInstallReservation(n, state, share);
  }
  state.split = split;
}

Result<TenantHandle> Cluster::AddTenant(TenantId tenant,
                                        GlobalReservation reservation,
                                        lsm::CompactionPolicy compaction,
                                        obs::DeclaredAttribution declared) {
  if (Find(tenant) != nullptr) {
    return Result<TenantHandle>(Status::AlreadyExists(
        "tenant " + std::to_string(tenant) + " already admitted"));
  }
  if (Status s = ValidateGlobal(reservation); !s.ok()) {
    return Result<TenantHandle>(std::move(s));
  }
  TenantState state;
  state.id = tenant;
  state.shards.resize(static_cast<size_t>(shard_map_.shards_per_tenant()));
  for (int slot = 0; slot < shard_map_.shards_per_tenant(); ++slot) {
    PlaceSlot(state, slot, -1);
  }
  const std::map<int, Reservation> split = EvenSplit(state, reservation);
  if (Status s = CheckAdmission(tenant, split); !s.ok()) {
    return Result<TenantHandle>(std::move(s));
  }
  state.global = reservation;
  state.compaction = compaction;
  state.declared = declared;
  const iosched::TenantSlot index = index_.Assign(tenant);
  assert(iosched::SlotIndex(index) == tenants_.size());
  TenantState& admitted = tenants_.emplace_back(std::move(state));
  ApplySplit(admitted, split);
  return Result<TenantHandle>(TenantHandle(this, tenant, index));
}

int Cluster::HomeOf(TenantId tenant, int slot) const {
  const TenantState* state = Find(tenant);
  return state == nullptr ? shard_map_.HomeOf(tenant, slot)
                          : state->shards[slot].replicas[0];
}

double Cluster::GlobalNormalizedTotal(TenantId tenant, AppRequest app) const {
  double total = 0.0;
  for (const auto& n : nodes_) {
    total += n->tracker().NormalizedRequestsTotal(tenant, app);
  }
  return total;
}

// --- request routing ---

namespace {

Status DroppedRpc(int node) {
  return Status::Unavailable("rpc to node " + std::to_string(node) +
                             " dropped (injected)");
}

Status NodeDown(int node) {
  return Status::Unavailable("node " + std::to_string(node) + " down");
}

}  // namespace

// A drop never reaches the node; an injected delay replaces the request
// leg's latency (see RequestLeg).
sim::Task<void> Cluster::WriteReplica(int node, TenantId tenant,
                                      std::string key,
                                      std::optional<std::string> value,
                                      TraceContext ctx, Status* out) {
  const std::optional<SimDuration> leg = RequestLeg(tenant, node);
  if (!leg.has_value()) {
    *out = DroppedRpc(node);
    co_return;
  }
  if (!node_state_[node].alive) {
    *out = NodeDown(node);
    co_return;
  }
  *out = co_await OnNode<Status>(node, *leg, &kv::StorageNode::Write,
                                 nodes_[node].get(), tenant, std::move(key),
                                 std::move(value), ctx);
}

namespace {

// Write fan-out verdict: the write is acked iff at least one replica
// persisted it and every failure was mere unavailability (a replica dying
// mid-write must not fail a write the survivors durably hold). Any hard
// error — or zero acks — surfaces, preferring the most specific status.
Status AggregateWrite(std::span<const Status> statuses) {
  int acks = 0;
  Status failure = Status::Ok();
  for (const Status& s : statuses) {
    if (s.ok()) {
      ++acks;
      continue;
    }
    if (failure.ok() || (failure.code() == StatusCode::kUnavailable &&
                         s.code() != StatusCode::kUnavailable)) {
      failure = s;
    }
  }
  if (failure.ok() || (acks > 0 &&
                       failure.code() == StatusCode::kUnavailable)) {
    return acks > 0 ? Status::Ok() : Status::Unavailable("no live replica");
  }
  return failure;
}

}  // namespace

sim::Task<Status> Cluster::Write(iosched::TenantSlot index, std::string key,
                                 std::optional<std::string> value) {
  const TenantId tenant = At(index).id;
  const int slot = shard_map_.SlotOfKey(key);
  ShardState& ss = At(index).shards[slot];
  // Routing gate: suspend while the slot migrates; the replica set is read
  // after it, since a migration that completed meanwhile re-homed it.
  while (ss.migrating) {
    co_await sim::SleepFor(loop_, kGatePoll);
  }
  const Replicas replicas = ss.replicas;
  ++ss.inflight;
  // Targets: every live replica. Syncing nodes are included — they must
  // see new writes during catch-up or they would fall behind forever.
  Replicas targets;
  for (const int r : replicas) {
    if (node_state_[r].alive) {
      targets.push_back(r);
    }
  }
  Status result = Status::Unavailable("no live replica for slot " +
                                      std::to_string(slot));
  if (!targets.empty()) {
    // A DELETE is accounted as a PUT of its key (see StorageNode::Write).
    const uint64_t bytes = value.has_value() ? value->size() : key.size();
    // The client-request span lives in the coordinator's own collector;
    // node collectors are never touched from this thread.
    const TraceContext ctx = MintTrace(client_spans_.get());
    const SimTime start = loop_.Now();
    if (targets.size() == 1) {
      co_await WriteReplica(targets[0], tenant, key, value, ctx, &result);
    } else {
      std::array<Status, kMaxReplicas> statuses;
      sim::TaskGroup group(loop_);
      for (size_t i = 0; i < targets.size(); ++i) {
        group.Spawn(WriteReplica(targets[i], tenant, key, value, ctx,
                                 &statuses[i]));
      }
      co_await group.Join();
      result = AggregateWrite(
          std::span<const Status>(statuses.data(), targets.size()));
      for (size_t i = 1; i < targets.size(); ++i) {
        if (statuses[i].ok()) {
          ++repl_[targets[i]].fanout_puts;
          repl_[targets[i]].fanout_bytes += bytes;
        }
      }
    }
    RecordClientSpan(client_spans_.get(), ctx, AppRequest::kPut, tenant, start,
                     loop_.Now(), bytes);
  }
  --ss.inflight;
  co_return result;
}

Replicas Cluster::ServingOrder(const Replicas& replicas) const {
  // Live synced replicas in replica-set order (leader first), then live
  // syncing ones — a catching-up replica may be missing flushed data, so
  // it serves only when nothing better is up.
  Replicas order;
  for (const int r : replicas) {
    if (node_state_[r].alive && !node_state_[r].syncing) {
      order.push_back(r);
    }
  }
  for (const int r : replicas) {
    if (node_state_[r].alive && node_state_[r].syncing) {
      order.push_back(r);
    }
  }
  return order;
}

sim::Task<Result<std::string>> Cluster::Get(iosched::TenantSlot index,
                                            std::string key) {
  const TenantId tenant = At(index).id;
  const int slot = shard_map_.SlotOfKey(key);
  ShardState& ss = At(index).shards[slot];
  while (ss.migrating) {
    co_await sim::SleepFor(loop_, kGatePoll);
  }
  const Replicas replicas = ss.replicas;
  ++ss.inflight;
  // Fail over along the whole serving order.
  const Replicas order = ServingOrder(replicas);
  Result<std::string> result(Status::Unavailable(
      "no live replica for slot " + std::to_string(slot)));
  for (const int node : order) {
    const std::optional<SimDuration> leg = RequestLeg(tenant, node);
    if (!leg.has_value()) {
      result = Result<std::string>(DroppedRpc(node));
      continue;  // fail over to the next replica
    }
    const TraceContext ctx = MintTrace(client_spans_.get());
    const SimTime start = loop_.Now();
    result = co_await OnNode<Result<std::string>>(
        node, *leg, &kv::StorageNode::Get, nodes_[node].get(), tenant, key,
        ctx);
    RecordClientSpan(client_spans_.get(), ctx, AppRequest::kGet, tenant, start,
                     loop_.Now(), result.ok() ? result.value().size() : 0);
    if (result.status().code() != StatusCode::kUnavailable) {
      if (node != replicas[0]) {
        ++repl_[node].failover_gets;
      }
      break;
    }
  }
  --ss.inflight;
  co_return result;
}

sim::Task<void> Cluster::MultiGetSlotGroup(
    iosched::TenantSlot index, int slot,
    std::vector<std::pair<size_t, std::string>> keys,
    std::vector<Result<std::string>>* out) {
  const TenantId tenant = At(index).id;
  ++multiget_groups_;
  multiget_grouped_keys_ += keys.size();
  // One migration gate for the whole group; the same inflight accounting
  // as per-key Get so a draining migration still waits for every member.
  ShardState& ss = At(index).shards[slot];
  while (ss.migrating) {
    co_await sim::SleepFor(loop_, kGatePoll);
  }
  // Serve from the head of the serving order (the leader when it is up);
  // a whole group fails together when every replica is down — the per-key
  // retry path (TenantHandle) is the recourse.
  const Replicas replicas = ss.replicas;
  const Replicas order = ServingOrder(replicas);
  if (order.empty()) {
    for (const auto& [i, key] : keys) {
      (*out)[i] = Result<std::string>(Status::Unavailable(
          "no live replica for slot " + std::to_string(slot)));
    }
    co_return;
  }
  const int node = order[0];
  if (node != replicas[0]) {
    repl_[node].failover_gets += keys.size();
  }
  ss.inflight += static_cast<int>(keys.size());
  // One client-request span covers the whole slot group; each member
  // lookup becomes a child span at the node.
  const TraceContext ctx = MintTrace(client_spans_.get());
  const SimTime start = loop_.Now();
  // One message carries the whole group; the node fans the lookups out
  // concurrently on its own loop and replies with results in key order.
  std::vector<std::string> group_keys;
  group_keys.reserve(keys.size());
  for (const auto& [i, key] : keys) {
    group_keys.push_back(key);
  }
  std::vector<Result<std::string>> results =
      co_await OnNode<std::vector<Result<std::string>>>(
          node, options_.rpc_latency, &Cluster::MultiGetOn, this, node,
          tenant, std::move(group_keys), ctx);
  for (size_t i = 0; i < keys.size(); ++i) {
    (*out)[keys[i].first] = std::move(results[i]);
  }
  RecordClientSpan(client_spans_.get(), ctx, AppRequest::kGet, tenant, start,
                   loop_.Now(), keys.size());
  ss.inflight -= static_cast<int>(keys.size());
}

// --- range scans ---

sim::Task<void> Cluster::ScanNodeGroup(TenantId tenant, int node,
                                       std::vector<int> slots,
                                       std::string start, std::string end,
                                       size_t limit,
                                       lsm::LsmDb::ScanResult* out) {
  const std::optional<SimDuration> leg = RequestLeg(tenant, node);
  if (!leg.has_value()) {
    out->status = DroppedRpc(node);
    co_return;
  }
  if (!node_state_[node].alive) {
    out->status = NodeDown(node);
    co_return;
  }
  const TraceContext ctx = MintTrace(client_spans_.get());
  const SimTime start_time = loop_.Now();
  // RF>1: the node's partition interleaves follower copies of slots served
  // elsewhere, so a pushed-down limit could truncate before this group's
  // own keys surface; scan unbounded and let the coordinator truncate.
  const size_t node_limit = shard_map_.replication_factor() > 1 ? 0 : limit;
  *out = co_await OnNode<lsm::LsmDb::ScanResult>(
      node, *leg, &kv::StorageNode::Scan, nodes_[node].get(), tenant,
      std::move(start), std::move(end), node_limit, ctx);
  uint64_t bytes = 0;
  if (out->status.ok()) {
    // Keep only the slots this node serves for the scan (SlotOfKey is a
    // pure key hash); copies of other slots' keys are surfaced by their
    // own serving nodes.
    ScanEntries kept;
    kept.reserve(out->entries.size());
    for (auto& [k, v] : out->entries) {
      const int slot = shard_map_.SlotOfKey(k);
      if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
        bytes += v.size();
        kept.emplace_back(std::move(k), std::move(v));
      }
    }
    out->entries = std::move(kept);
  }
  RecordClientSpan(client_spans_.get(), ctx, AppRequest::kScan, tenant,
                   start_time, loop_.Now(), bytes);
}

sim::Task<Result<ScanEntries>> Cluster::Scan(iosched::TenantSlot index,
                                             std::string start,
                                             std::string end, size_t limit) {
  const TenantId tenant = At(index).id;
  if (!end.empty() && end <= start) {
    co_return Result<ScanEntries>(ScanEntries{});  // empty range
  }
  // Resolve every slot's serving node in ring order: gate on migrations,
  // then take the head of its serving order (the leader when it is up). A
  // slot with no live replica fails the whole scan — a range scan must not
  // silently skip part of the keyspace.
  std::map<int, std::vector<int>> by_node;
  for (int slot = 0; slot < shard_map_.shards_per_tenant(); ++slot) {
    const ShardState& ss = At(index).shards[slot];
    while (ss.migrating) {
      co_await sim::SleepFor(loop_, kGatePoll);
    }
    const Replicas order = ServingOrder(ss.replicas);
    if (order.empty()) {
      co_return Result<ScanEntries>(Status::Unavailable(
          "no live replica for slot " + std::to_string(slot)));
    }
    by_node[order[0]].push_back(slot);
  }
  // The scan holds every slot inflight for its whole duration, so a
  // migration drain waits for it like any other request.
  for (const auto& [node, slots] : by_node) {
    for (const int slot : slots) {
      ++At(index).shards[slot].inflight;
    }
  }
  std::vector<lsm::LsmDb::ScanResult> per_node(by_node.size());
  {
    sim::TaskGroup group(loop_);
    size_t i = 0;
    for (const auto& [node, slots] : by_node) {
      group.Spawn(
          ScanNodeGroup(tenant, node, slots, start, end, limit,
                        &per_node[i]));
      ++i;
    }
    co_await group.Join();
  }
  for (const auto& [node, slots] : by_node) {
    for (const int slot : slots) {
      --At(index).shards[slot].inflight;
    }
  }
  // Merge: slots partition the keyspace, so the per-node runs are disjoint
  // — concatenate, restore key order, apply the global limit.
  ScanEntries merged;
  for (auto& r : per_node) {
    if (!r.status.ok()) {
      co_return Result<ScanEntries>(std::move(r.status));
    }
    merged.insert(merged.end(), std::make_move_iterator(r.entries.begin()),
                  std::make_move_iterator(r.entries.end()));
  }
  std::sort(merged.begin(), merged.end());
  if (limit != 0 && merged.size() > limit) {
    merged.resize(limit);
  }
  co_return Result<ScanEntries>(std::move(merged));
}

// --- shard migration ---

sim::Task<Status> Cluster::MigrateShard(TenantId tenant, int slot,
                                        int to_node) {
  TenantState* state = Find(tenant);
  if (state == nullptr) {
    co_return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  if (slot < 0 || slot >= shard_map_.shards_per_tenant()) {
    co_return Status::InvalidArgument("slot out of range");
  }
  if (to_node < 0 || to_node >= num_nodes()) {
    co_return Status::InvalidArgument("node out of range");
  }
  ShardState& ss = state->shards[slot];
  const int from = ss.replicas[0];
  if (from == to_node) {
    co_return Status::Ok();
  }
  if (!node_state_[to_node].alive) {
    co_return Status::FailedPrecondition("target node down");
  }
  if (!node_state_[from].alive) {
    co_return Status::FailedPrecondition("source node down");
  }
  if (ss.migrating) {
    co_return Status::FailedPrecondition("shard already migrating");
  }
  // New requests to the shard suspend and in-flight ones drain; the gate
  // reopens when this coroutine returns, on success or error.
  SlotGate gate(loop_, *state, std::span<const int>(&slot, 1),
                &active_migrations_);
  co_await gate.Close();

  // Best-effort registration; the provisioner assigns it a real share of
  // the global reservation at its next split. (Node-side membership checks
  // happen on the node's own loop.)
  NodeEnsureTenant(to_node, *state);

  // Copy every live key of the migrating slot. The drain read and the
  // re-home writes are charged to the tenant as unattributed IO (no app
  // request class), so its GET/PUT profiles are not distorted. Each side
  // gets a kMigration span in the coordinator's client collector: the
  // source span covers the scan + tombstoning, the destination span
  // (linked to the source) covers the copy-in, and all device IO parents
  // under them.
  obs::SpanCollector* spans = client_spans_.get();
  const TraceContext src_ctx =
      spans != nullptr ? spans->MintAlways() : TraceContext{};
  const TraceContext dst_ctx =
      spans != nullptr ? spans->MintAlways() : TraceContext{};
  const SimTime copy_start = loop_.Now();
  const iosched::IoTag drain_tag{.tenant = tenant, .ctx = src_ctx};
  const char* const kMissing = "missing partition during migration";
  // Named locals, not prvalues, for OnNode's by-value arguments (see the
  // GCC 12 note in cluster.h).
  std::vector<int> slot_vec(1, slot);
  Result<ScanEntries> scanned = co_await OnNode<Result<ScanEntries>>(
      from, options_.rpc_latency, &Cluster::ScanSlotsOn, this, from, tenant,
      std::move(slot_vec), drain_tag, kMissing);
  if (!scanned.ok()) {
    co_return scanned.status();
  }
  WriteOps moving;
  moving.reserve(scanned.value().size());
  for (auto& [k, v] : scanned.value()) {
    moving.emplace_back(std::move(k), std::move(v));
  }
  const ApplyResult copy_in = co_await OnNode<ApplyResult>(
      to_node, options_.rpc_latency, &Cluster::ApplyOpsOn, this, to_node,
      tenant, moving, dst_ctx, iosched::InternalOp::kNone, kMissing);
  if (!copy_in.status.ok()) {
    co_return copy_in.status;
  }
  const uint64_t moved_bytes =
      copy_in.put_key_bytes + copy_in.put_value_bytes;
  // Flip the map only after the copy fully succeeded (re-running a failed
  // migration must still see the source's keys), then tombstone the moved
  // keys at the source — unless the source remains in the slot's replica
  // set (RF>1: re-homing the leader can demote the old leader to a ring
  // follower, whose copy must survive).
  PlaceSlot(*state, slot, to_node);
  const bool from_still_replica = ss.replicas.contains(from);
  if (!from_still_replica) {
    for (auto& [k, v] : moving) {
      v.reset();  // tombstone each moved key
    }
    const ApplyResult tombstoned = co_await OnNode<ApplyResult>(
        from, options_.rpc_latency, &Cluster::ApplyOpsOn, this, from, tenant,
        std::move(moving), src_ctx, iosched::InternalOp::kNone, kMissing);
    if (!tombstoned.status.ok()) {
      co_return tombstoned.status;
    }
  }
  if (spans != nullptr) {
    obs::SpanRecord rec;
    rec.trace_id = src_ctx.trace_id;
    rec.span_id = src_ctx.span_id;
    rec.kind = obs::SpanKind::kMigration;
    rec.tenant = tenant;
    rec.start_ns = copy_start;
    rec.end_ns = loop_.Now();
    rec.bytes = moved_bytes;
    spans->Record(rec);
    // The destination's copy-in: a write, linked to the drain it rode.
    rec.trace_id = dst_ctx.trace_id;
    rec.span_id = dst_ctx.span_id;
    rec.is_write = 1;
    rec.links.Add(src_ctx);
    spans->Record(rec);
  }

  // The gate reopens as the coroutine returns; gated requests re-resolve
  // to the new home.

  obs::RebalanceRecord rec;
  rec.kind = obs::RebalanceRecord::Kind::kMigration;
  rec.time_ns = loop_.Now();
  rec.tenant = tenant;
  rec.slot = slot;
  rec.from_node = from;
  rec.to_node = to_node;
  rec.keys_moved = copy_in.puts_applied;  // all of them: copy-in succeeded
  rebalance_log_.Append(rec);
  co_return Status::Ok();
}

// --- crash fault injection & recovery ---

void Cluster::ResplitForMembership() {
  for (const iosched::TenantSlots::Entry& e : index_.by_id()) {
    TenantState& state = At(e.slot);
    const std::map<int, Reservation> split = EvenSplit(state, state.global);
    if (split.empty()) {
      // Every hosting node is down; nothing to install until a restart.
      continue;
    }
    ApplySplit(state, split);
  }
}

Status Cluster::CrashNode(int node) {
  if (node < 0 || node >= num_nodes()) {
    return Status::InvalidArgument("node out of range");
  }
  if (!node_state_[node].alive) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " already down");
  }
  Post(node, [](kv::StorageNode& n) { n.Crash(); });
  node_state_[node].alive = false;
  node_state_[node].syncing = false;
  // Immediately move the dead node's reservation mass to the survivors so
  // no tenant's global reservation is partially stranded on a stopped
  // policy (the exact-sum invariant the provisioner relies on).
  ResplitForMembership();
  return Status::Ok();
}

sim::Task<Status> Cluster::RestartNode(int node) {
  if (node < 0 || node >= num_nodes()) {
    co_return Status::InvalidArgument("node out of range");
  }
  if (node_state_[node].alive) {
    co_return Status::FailedPrecondition("node " + std::to_string(node) +
                                         " is not crashed");
  }
  if (Status s = co_await OnNode<Status>(node, options_.rpc_latency,
                                         &kv::StorageNode::Restart,
                                         nodes_[node].get());
      !s.ok()) {
    co_return s;
  }
  node_state_[node].alive = true;
  node_state_[node].syncing = shard_map_.replication_factor() > 1;
  // Back in the write path (and the reservation split) right away; reads
  // prefer synced replicas until catch-up finishes.
  ResplitForMembership();
  if (node_state_[node].syncing) {
    const Status caught_up = co_await CatchUpNode(node);
    node_state_[node].syncing = false;
    co_return caught_up;
  }
  co_return Status::Ok();
}

sim::Task<Status> Cluster::CatchUpNode(int node) {
  // The tenants admitted now, in id order (admissions during the catch-up
  // are placed with the node already up).
  std::vector<iosched::TenantSlot> order;
  order.reserve(index_.size());
  for (const iosched::TenantSlots::Entry& e : index_.by_id()) {
    order.push_back(e.slot);
  }
  Status worst = Status::Ok();
  for (const iosched::TenantSlot t : order) {
    if (Status s = co_await CatchUpTenant(t, node); !s.ok()) {
      worst = s;  // keep catching up the other tenants regardless
    }
  }
  repl_[node].catchup_lag_slots = 0;
  co_return worst;
}

sim::Task<Status> Cluster::CatchUpTenant(iosched::TenantSlot index,
                                         int node) {
  TenantState& state = At(index);
  const TenantId tenant = state.id;
  // Slots this node replicates, grouped by the surviving replica that will
  // source the copy (first live synced member of each slot's replica set).
  std::map<int, std::vector<int>> by_source;
  int total_slots = 0;
  for (int slot = 0; slot < shard_map_.shards_per_tenant(); ++slot) {
    const Replicas& replicas = state.shards[slot].replicas;
    if (!replicas.contains(node)) {
      continue;
    }
    for (const int r : replicas) {
      if (r != node && node_state_[r].alive && !node_state_[r].syncing) {
        by_source[r].push_back(slot);
        ++total_slots;
        break;
      }
    }
  }
  if (by_source.empty()) {
    co_return Status::Ok();
  }
  repl_[node].catchup_lag_slots += total_slots;
  for (const auto& [src_node, slots] : by_source) {
    // Gate the group's slots like a migration: new requests suspend and
    // in-flight ones drain, so a write cannot race the copy and be
    // shadowed by an older copied-in value.
    SlotGate gate(loop_, state, slots);
    co_await gate.Close();

    // Both sides bill the copy stream as PUT-triggered REPL work: the scan
    // on the source and the copy-in on the restarted node all carry
    // InternalOp::kReplicate, so recovery lands in each node's attribution
    // matrix and interval pricing like any other background amplification.
    NodeRecordReplTrigger(src_node, tenant);
    NodeRecordReplTrigger(node, tenant);
    const iosched::IoTag repl_tag{
        .tenant = tenant,
        .app = AppRequest::kPut,
        .internal = iosched::InternalOp::kReplicate};
    Result<ScanEntries> src_scan = co_await OnNode<Result<ScanEntries>>(
        src_node, options_.rpc_latency, &Cluster::ScanSlotsOn, this, src_node,
        tenant, slots, repl_tag, "missing source partition during catch-up");
    if (!src_scan.ok()) {
      NodeRecordReplDone(src_node, tenant);
      NodeRecordReplDone(node, tenant);
      co_return src_scan.status();
    }
    std::map<std::string, std::string> authoritative;
    for (auto& [k, v] : src_scan.value()) {
      authoritative.emplace(std::move(k), std::move(v));
    }
    // WAL replay may have resurrected keys deleted cluster-wide while the
    // node was down; sweep anything the source no longer has. The slot
    // filter runs node-side (pure key hash); the authoritative diff runs
    // here against the map we just assembled.
    Result<ScanEntries> dst_scan = co_await OnNode<Result<ScanEntries>>(
        node, options_.rpc_latency, &Cluster::ScanSlotsOn, this, node, tenant,
        slots, repl_tag, "missing partition during catch-up");
    Status copy = dst_scan.status();
    if (copy.ok()) {
      // The source's keys, then tombstones for the stale ones.
      WriteOps ops;
      ops.reserve(authoritative.size());
      for (auto& [k, v] : authoritative) {
        ops.emplace_back(k, std::move(v));
      }
      for (auto& [k, v] : dst_scan.value()) {
        if (authoritative.count(k) == 0) {
          ops.emplace_back(std::move(k), std::nullopt);
        }
      }
      const ApplyResult applied = co_await OnNode<ApplyResult>(
          node, options_.rpc_latency, &Cluster::ApplyOpsOn, this, node, tenant,
          std::move(ops), TraceContext{}, iosched::InternalOp::kReplicate,
          "missing partition during catch-up");
      repl_[node].catchup_keys += applied.puts_applied;
      repl_[node].catchup_bytes += applied.put_value_bytes;
      copy = applied.status;
    }
    NodeRecordReplDone(src_node, tenant);
    NodeRecordReplDone(node, tenant);
    if (!copy.ok()) {
      co_return copy;
    }
    repl_[node].catchup_lag_slots -=
        static_cast<int>(slots.size());
  }
  co_return Status::Ok();
}

ClusterStats Cluster::Snapshot() const {
  ClusterStats s;
  s.time_ns = loop_.Now();
  s.nodes.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    s.nodes.push_back(n->Snapshot());
  }
  const int rf = shard_map_.replication_factor();
  for (int n = 0; n < num_nodes(); ++n) {
    kv::ReplicationSnapshot& r = s.nodes[n].replication;
    r.enabled = rf > 1;
    r.alive = node_state_[n].alive;
    r.syncing = node_state_[n].syncing;
    r.fanout_puts = repl_[n].fanout_puts;
    r.fanout_bytes = repl_[n].fanout_bytes;
    r.failover_gets = repl_[n].failover_gets;
    r.catchup_keys = repl_[n].catchup_keys;
    r.catchup_bytes = repl_[n].catchup_bytes;
    r.catchup_lag_slots = repl_[n].catchup_lag_slots;
  }
  s.tenants.reserve(tenants_.size());
  for (const iosched::TenantSlots::Entry& entry : index_.by_id()) {
    const TenantState& state = tenants_[iosched::SlotIndex(entry.slot)];
    ClusterStats::TenantEntry e;
    e.tenant = entry.id;
    e.global = state.global;
    e.compaction = state.compaction;
    e.slot_homes.reserve(state.shards.size());
    for (const ShardState& ss : state.shards) {
      e.slot_homes.push_back(ss.replicas[0]);
      ++s.nodes[ss.replicas[0]].replication.leader_slots;
      for (size_t i = 1; i < ss.replicas.size(); ++i) {
        ++s.nodes[ss.replicas[i]].replication.follower_slots;
      }
    }
    s.tenants.push_back(std::move(e));
  }
  s.rebalances.assign(rebalance_log_.records().begin(),
                      rebalance_log_.records().end());
  return s;
}

}  // namespace libra::cluster
