// Multi-node cluster layer: the tier above Libra's per-node enforcement.
//
// The paper positions Libra as the bottom half of a two-tier system (§1,
// Fig. 1): a system-wide policy such as Pisces partitions each tenant's
// global reservation into per-node local reservations, and Libra makes each
// node's share achievable. Cluster is that tier: it owns N StorageNodes,
// each on its own loop of a sim::MultiLoop with cross-node RPCs as
// latency-bearing messages, shards each tenant's keyspace across nodes by
// consistent hashing (ShardMap), and runs a GlobalProvisioner that periodically
// re-splits every tenant's global app-request reservation in proportion to
// observed per-node demand, with hysteresis, node-level admission control,
// and shard migration off persistently overbooked nodes.
//
// Clients do not address nodes or carry raw TenantIds through call sites:
// AddTenant returns a TenantHandle whose Get/Put/Delete/MultiGet/Scan
// coroutines route each key (or key range) to the node homing its shard,
// suspending while that shard is mid-migration. Reservations are per
// app-request class (GET/PUT/SCAN), and each tenant declares its LSM
// compaction policy at admission — the cluster installs it on every node
// hosting one of the tenant's shards.

#ifndef LIBRA_SRC_CLUSTER_CLUSTER_H_
#define LIBRA_SRC_CLUSTER_CLUSTER_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cluster/shard_map.h"
#include "src/common/ewma.h"
#include "src/common/status.h"
#include "src/iosched/io_tag.h"
#include "src/iosched/resource_policy.h"
#include "src/iosched/tenant_slots.h"
#include "src/kv/node_stats.h"
#include "src/kv/storage_node.h"
#include "src/obs/audit.h"
#include "src/obs/conformance.h"
#include "src/obs/span.h"
#include "src/sim/event_loop.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace libra::cluster {

class Cluster;
class GlobalProvisioner;

// A tenant's system-wide reservation in normalized (1KB) requests per
// second — the quantity the provisioner splits into per-node
// iosched::Reservations. One rate per app-request class (GET/PUT/SCAN).
using GlobalReservation = iosched::Reservation;

// A cluster-level range-scan result: live (key, value) pairs in key order.
using ScanEntries = std::vector<std::pair<std::string, std::string>>;

struct GlobalProvisionerOptions {
  SimDuration interval = 1 * kSecond;
  // EWMA weight for per-(tenant, node) demand smoothing.
  double demand_alpha = 0.3;
  // A new split is applied only when some node's share of the global
  // reservation moves by more than this fraction of the global rate —
  // the anti-thrash hysteresis band.
  double hysteresis = 0.05;
  // Every hosting node keeps at least this fraction of the global
  // reservation, so a shard that goes quiet can still ramp back up.
  double min_share = 0.02;
  // Consecutive overbooked provisioning intervals on one node before a
  // shard migration fires; <= 0 disables automatic migration.
  int overbook_intervals_before_migration = 3;
};

// Client-side retry policy applied by TenantHandle when a routed request
// fails with kUnavailable (node crashed, no live replica, dropped RPC).
// Retries re-route, so a request issued while a node is down succeeds once
// failover or recovery makes a replica reachable. The defaults disable
// retry entirely (one attempt, no sleeps) — the pre-replication behavior.
struct RetryPolicy {
  int max_retries = 0;  // additional attempts after the first
  SimDuration initial_backoff = 1 * kMillisecond;
  double backoff_multiplier = 2.0;
  // Per-request wall budget across all attempts; 0 = unbounded. When the
  // budget runs out the request fails with kDeadlineExceeded (it never
  // hangs); before that, exhausting max_retries surfaces the last
  // underlying error.
  SimDuration deadline = 0;
};

// Per-RPC fault decision, consulted on every routed node call when an
// injector is installed (FaultInjector implements this): the call may be
// delayed, and/or dropped — a drop surfaces as kUnavailable to the router,
// exercising the same failover/retry machinery as a crashed node.
struct RpcFault {
  bool drop = false;
  SimDuration delay = 0;
};

class RpcFaultInjector {
 public:
  virtual ~RpcFaultInjector() = default;
  virtual RpcFault OnRpc(iosched::TenantId tenant, int node) = 0;
};

struct ClusterOptions {
  int num_nodes = 4;
  int shards_per_tenant = 8;
  int vnodes_per_node = 64;
  uint64_t placement_seed = 0x11b7a5eed;
  // Replicas per shard slot (leader + rf-1 ring followers on distinct
  // nodes; see ShardMap::ReplicasOf). At RF>1 writes fan out to every live
  // replica (acked when at least one replica acked), reads fail over to
  // followers when the leader is down, and a restarted node catches up via
  // a VOP-priced copy stream from a surviving replica. 1 = unreplicated.
  int replication_factor = 1;
  RetryPolicy retry;
  kv::NodeOptions node_options;  // every node is configured identically
  GlobalProvisionerOptions provisioner;
  // Admission control: a tenant is admitted only if, on every node hosting
  // its shards, already-provisioned VOP demand plus the tenant's share
  // stays within this fraction of the node's capacity floor. Demand is
  // priced at the cost model's normalized-request price times the headroom
  // factor (a stand-in for unobserved amplification at admission time).
  double admission_utilization = 0.95;
  double admission_headroom = 1.0;
  // Disables the admission check entirely (AddTenant always admits). The
  // check walks every admitted tenant per hosting node, which is
  // O(tenants^2) across a mega-scale setup phase; consolidation
  // experiments that only study steady-state scheduling turn it off.
  bool admission_enabled = true;
  // One-way cross-node RPC latency: the delay of every request and
  // response message between the coordinator and a node's loop. Must be
  // positive and >= the engine's lookahead, since it bounds every
  // cross-node message delay the conservative synchronization relies on.
  SimDuration rpc_latency = 50 * kMicrosecond;
  // Group MultiGet fan-out by shard slot: same-slot keys share one routing
  // gate (one AwaitRoutable instead of one per key) and are issued to the
  // home node as one batch whose lookups still proceed concurrently. Off by
  // default (per-key routing, the pre-batching behavior).
  bool batch_multiget = false;
};

// Client surface for one tenant: routes requests to the node homing each
// key's shard. It carries the tenant's index in the cluster's tenant
// table, so a request reaches its tenant's routing state without a lookup.
// Cheap to copy; valid while the Cluster lives. A default-constructed
// handle is inert (valid() == false) so Result<TenantHandle> has a
// well-defined error payload.
class TenantHandle {
 public:
  TenantHandle() = default;

  bool valid() const { return cluster_ != nullptr; }
  iosched::TenantId tenant() const { return tenant_; }

  sim::Task<Status> Put(const std::string& key, const std::string& value) {
    return Write(key, value);
  }
  sim::Task<Status> Delete(const std::string& key) {
    return Write(key, std::nullopt);
  }
  sim::Task<Result<std::string>> Get(const std::string& key);
  // Issues all lookups concurrently; results are in `keys` order.
  sim::Task<std::vector<Result<std::string>>> MultiGet(
      const std::vector<std::string>& keys);
  // Range scan over [start, end) — empty `end` = to the end of the keyspace
  // — returning at most `limit` live entries (0 = no limit) in key order.
  // Keys hash to shard slots, so a contiguous range spans every slot: the
  // scan routes each slot to its serving node (leader when up), fans out
  // one node-level SCAN per distinct node, and merges the per-node runs.
  // IO is charged to the SCAN class on every node touched.
  sim::Task<Result<ScanEntries>> Scan(const std::string& start,
                                      const std::string& end, size_t limit);

 private:
  friend class Cluster;
  TenantHandle(Cluster* cluster, iosched::TenantId tenant,
               iosched::TenantSlot index)
      : cluster_(cluster), tenant_(tenant), index_(index) {}

  // Put (value) or Delete (nullopt) with the retry policy; `value` views
  // the caller's bytes, which must outlive the returned task.
  sim::Task<Status> Write(const std::string& key,
                          std::optional<std::string_view> value);

  Cluster* cluster_ = nullptr;
  iosched::TenantId tenant_ = iosched::kInvalidTenant;
  iosched::TenantSlot index_ = iosched::TenantSlot::kNone;  // tenants_ row
};

// Cluster-wide observability snapshot (rendered by ClusterStatsToJson).
struct ClusterStats {
  int64_t time_ns = 0;
  std::vector<kv::NodeStats> nodes;
  struct TenantEntry {
    iosched::TenantId tenant = iosched::kInvalidTenant;
    GlobalReservation global;
    lsm::CompactionPolicy compaction = lsm::CompactionPolicy::kLeveled;
    std::vector<int> slot_homes;  // node per slot
  };
  std::vector<TenantEntry> tenants;
  std::vector<obs::RebalanceRecord> rebalances;
};

std::string ClusterStatsToJson(const ClusterStats& stats);

class Cluster {
 public:
  // `engine` must have options.num_nodes + 1 loops — loop 0 runs clients,
  // routing, the provisioner, and fault schedules; loop i + 1 runs node i.
  // Every cross-node interaction is a MultiLoop message with
  // options.rpc_latency as the request/response leg, so options.rpc_latency
  // must be positive and >= engine.lookahead(). Output is byte-identical
  // across engine thread counts.
  Cluster(sim::MultiLoop& engine, ClusterOptions options);

  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Admits a tenant with a global reservation and registers it (with its
  // initial even split) on every node hosting one of its shards. Fails with
  // kAlreadyExists (duplicate), kInvalidArgument (malformed reservation) or
  // kResourceExhausted (admission control: some hosting node cannot absorb
  // the tenant's share; the message names the node and the shortfall).
  // `compaction` is the tenant's LSM compaction policy, installed on every
  // node that ever hosts one of its partitions (including nodes it migrates
  // onto later).
  // `declared` is the attribution profile the tenant claims (forwarded to
  // every StorageNode::AddTenant, so each hosting node's conformance
  // monitor verifies its observed q̂ against it).
  Result<TenantHandle> AddTenant(
      iosched::TenantId tenant, GlobalReservation reservation,
      lsm::CompactionPolicy compaction = lsm::CompactionPolicy::kLeveled,
      obs::DeclaredAttribution declared = {});

  // Starts/stops every node's resource policy and the global provisioner.
  void Start();
  void Stop();

  // Drains (tenant, slot) on its current home and re-homes it on `to_node`:
  // new requests to the shard suspend, in-flight ones finish, live keys are
  // copied over and tombstoned at the source, then the map flips and gated
  // requests proceed. Key-preserving by construction; the copy IO is
  // charged to the tenant (unattributed class, so request profiles stay
  // clean).
  sim::Task<Status> MigrateShard(iosched::TenantId tenant, int slot,
                                 int to_node);

  // --- crash fault injection & recovery ---

  // Crashes node `node` at the current instant: its policy stops, its
  // partitions are killed (in-flight requests there fail kUnavailable), and
  // every tenant's reservation is immediately re-split over the surviving
  // hosting nodes (exact-sum: no reservation mass is stranded on the dead
  // node). Requests routed to the node fail over to live replicas (RF>1)
  // or fail kUnavailable until RestartNode (RF=1).
  Status CrashNode(int node);

  // Restarts a crashed node: WAL replay restores its unflushed writes,
  // reservations re-split to include it again, and (RF>1) a catch-up copy
  // stream re-replicates each of its slots from a surviving replica,
  // priced as InternalOp::kReplicate VOPs on both ends. Slots being caught
  // up gate briefly (requests suspend, as during migration) so concurrent
  // writes cannot be shadowed by older copied-in values. At RF=1 there is
  // no surviving replica: flushed data is lost for good, only the WAL tail
  // comes back.
  sim::Task<Status> RestartNode(int node);

  bool NodeAlive(int node) const { return node_state_[node].alive; }
  bool NodeSyncing(int node) const { return node_state_[node].syncing; }

  // Installs (or clears, with nullptr) the per-RPC fault hook. Not owned.
  void SetRpcFaultInjector(RpcFaultInjector* injector) {
    rpc_faults_ = injector;
  }

  // --- introspection ---

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  kv::StorageNode& node(int i) { return *nodes_[i]; }
  const ShardMap& shard_map() const { return shard_map_; }
  // The node homing (tenant, slot) now: its ring placement until a
  // migration re-homes it (the ring placement for an unknown tenant).
  int HomeOf(iosched::TenantId tenant, int slot) const;
  // Engine introspection. Reading node state (node(i), Snapshot,
  // GlobalNormalizedTotal) is only safe while the engine is quiesced:
  // before RunUntil/Run, after it returns, or inside a MultiLoop barrier
  // hook.
  sim::MultiLoop& engine() { return engine_; }
  SimDuration lookahead() const { return engine_.lookahead(); }
  // Coordinator-side collector for client-request and migration spans
  // (nullptr when tracing is off).
  const obs::SpanCollector* client_spans() const {
    return client_spans_.get();
  }
  GlobalProvisioner& provisioner() { return *provisioner_; }
  const obs::RebalanceLog& rebalance_log() const { return rebalance_log_; }

  // Cumulative normalized requests served for `tenant` across all nodes
  // (evaluation harnesses take deltas for global achieved rates).
  double GlobalNormalizedTotal(iosched::TenantId tenant,
                               iosched::AppRequest app) const;

  // Batched-MultiGet accounting (0 unless options.batch_multiget): slot
  // groups routed and the keys they carried.
  uint64_t multiget_groups() const { return multiget_groups_; }
  uint64_t multiget_grouped_keys() const { return multiget_grouped_keys_; }

  ClusterStats Snapshot() const;

 private:
  friend class GlobalProvisioner;
  friend class TenantHandle;

  // Per-(tenant, slot) routing state: the slot's replica set (leader
  // first; a migration re-homes the leader) and its gates — inflight gates
  // migration draining; migrating gates new requests.
  struct ShardState {
    bool migrating = false;
    int inflight = 0;
    Replicas replicas;
  };

  // A node that hosts, or once hosted, replicas of a tenant's slots: how
  // many it holds now and the provisioner's demand measurements there.
  struct HostRow {
    int node = 0;
    int slots = 0;  // slot replicas hosted now (0: all migrated away)
    // The tenant's slot in the node's registry, once the node has it.
    iosched::TenantSlot node_slot = iosched::TenantSlot::kNone;
    // Demand: counter snapshots at the previous provisioner step and
    // smoothed normalized request rates, one per app-request class
    // (indexed by AppRequest — the kNone slot stays zero). Unset until
    // the provisioner first samples this node.
    bool measured = false;
    double last_total[iosched::kNumAppRequests] = {};
    Ewma rate[iosched::kNumAppRequests];
    // Smoothed all-class demand (normalized requests/s).
    double TotalRate() const {
      double sum = 0.0;
      for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests;
           ++a) {
        sum += rate[a].Value();
      }
      return sum;
    }
  };

  struct TenantState {
    iosched::TenantId id = iosched::kInvalidTenant;
    GlobalReservation global;
    // The tenant's declared LSM compaction policy, passed to every
    // StorageNode::AddTenant the control-plane seams issue for it.
    lsm::CompactionPolicy compaction = lsm::CompactionPolicy::kLeveled;
    // Declared attribution profile, likewise forwarded on every install.
    obs::DeclaredAttribution declared;
    // Current per-node split (what the nodes' policies were last told).
    std::map<int, iosched::Reservation> split;
    std::vector<ShardState> shards;  // by shard slot
    std::vector<HostRow> hosts;      // ascending node
  };

  // The admitted tenant's state, or nullptr.
  TenantState* Find(iosched::TenantId tenant);
  const TenantState* Find(iosched::TenantId tenant) const;
  TenantState& At(iosched::TenantSlot index) {
    return tenants_[iosched::SlotIndex(index)];
  }
  // Places slot `slot` of `state` with `leader` first (the ring placement
  // when negative) and recounts the tenant's per-node slot replicas.
  void PlaceSlot(TenantState& state, int slot, int leader);

  // Holds some of one tenant's slots closed while a copy stream (migration
  // or catch-up) runs. Close waits until each slot's gate is open, closes
  // it (new requests to the slot now suspend), then waits until the slots'
  // in-flight requests drain. The destructor reopens every slot it closed,
  // so a gate in a coroutine frame reopens on every return path. `active`,
  // when set, counts the gate while it lives (active_migrations_).
  class SlotGate {
   public:
    SlotGate(sim::EventLoop& loop, TenantState& state,
             std::span<const int> slots, int* active = nullptr);
    ~SlotGate();
    SlotGate(const SlotGate&) = delete;
    SlotGate& operator=(const SlotGate&) = delete;

    sim::Task<void> Close();

   private:
    sim::EventLoop& loop_;
    TenantState& state_;
    std::span<const int> slots_;  // the caller's; outlives the gate
    int* active_;
    size_t closed_ = 0;  // slots_[0, closed_) are closed
  };

  // --- request routing (TenantHandle forwards here) ---
  // The one write verb: `value` is the PUT payload, nullopt a DELETE. The
  // write fans out to every live replica; a DELETE is accounted as a PUT
  // of its key (fan-out bytes and client span), like StorageNode::Write.
  // `index` is the tenant's row (TenantHandle::index_).
  sim::Task<Status> Write(iosched::TenantSlot index, std::string key,
                          std::optional<std::string> value);
  sim::Task<Result<std::string>> Get(iosched::TenantSlot index,
                                     std::string key);
  sim::Task<Result<ScanEntries>> Scan(iosched::TenantSlot index,
                                      std::string start, std::string end,
                                      size_t limit);

  // The live members of `replicas` in the order reads try them: synced
  // replicas in replica-set order (leader first), then syncing ones. Get
  // fails over along it; MultiGet and Scan serve from its head.
  Replicas ServingOrder(const Replicas& replicas) const;

  // Batched MultiGet: routes one slot's key group through a single gate,
  // then fans the lookups out concurrently on the home node, writing each
  // result to its original position in the caller's output vector.
  // `keys` pairs are (output index, key), by value: the coroutine frame
  // must own them across suspension.
  sim::Task<void> MultiGetSlotGroup(
      iosched::TenantSlot index, int slot,
      std::vector<std::pair<size_t, std::string>> keys,
      std::vector<Result<std::string>>* out);

  // One node's leg of a cluster scan: issues the node-level SCAN (with its
  // own client span and RPC fault handling) and filters the returned run to
  // the slots this node serves for the scan, writing into `out`. Spawned
  // per distinct serving node; parameters by value (TaskGroup lifetime).
  sim::Task<void> ScanNodeGroup(iosched::TenantId tenant, int node,
                                std::vector<int> slots, std::string start,
                                std::string end, size_t limit,
                                lsm::LsmDb::ScanResult* out);

  // One replica's leg of a write fan-out (TaskGroup-spawned: parameters
  // by value, the frames outlive the caller's loop variables).
  sim::Task<void> WriteReplica(int node, iosched::TenantId tenant,
                               std::string key,
                               std::optional<std::string> value,
                               TraceContext ctx, Status* out);

  // --- cross-node seam ---
  //
  // Every interaction with a StorageNode is a MultiLoop message to the
  // node's own loop, in one of two forms:
  //  - OnNode (request/response): the request leg takes `request_delay`
  //    (the RPC latency, or an injected fault delay that replaces it —
  //    which is why FaultInjector delays must stay >= the lookahead); the
  //    node-side coroutine std::invoke(fn, args...) then runs detached on
  //    the node's loop, and its Task<T> result rides the response leg
  //    (rpc_latency) back to a OneShot on the coordinator loop.
  //  - Post (fire-and-forget): `fn(node)` runs on the node's loop after
  //    rpc_latency. Control-plane steps use it, so membership and
  //    registration checks read node state only on the node's own loop.
  // Per-channel FIFO at equal delays means control messages (tenant
  // install, crash) are never overtaken by requests sent after them.
  //
  // OnNode carries request state as `args` (by value, moved along each
  // hop) rather than as lambda captures: GCC 12 relocates a temporary
  // closure that lives across a co_await with a bitwise copy, which breaks
  // captured std::strings.

  int NodeLoopIndex(int node) const { return node + 1; }

  template <typename T, typename Fn, typename... Args>
  sim::Task<T> OnNode(int node, SimDuration request_delay, Fn fn,
                      Args... args);
  // The node-side half of OnNode: owns `args` (which the node task may
  // reference) until that task completes, then replies.
  template <typename T, typename Fn, typename... Args>
  sim::Task<void> Serve(int node, sim::OneShot<T>* done, Fn fn,
                        Args... args);
  template <typename Fn>
  void Post(int node, Fn fn);

  // Consults the RPC fault hook for one routed call to `node`: the
  // request-leg delay (an injected delay replaces rpc_latency), or nullopt
  // when the call is dropped and never reaches the node.
  std::optional<SimDuration> RequestLeg(iosched::TenantId tenant, int node);

  // Node-side bodies run through OnNode on the node's loop.

  // Batched slot-group lookup: fans the keys out concurrently; results in
  // key order.
  sim::Task<std::vector<Result<std::string>>> MultiGetOn(
      int node, iosched::TenantId tenant, std::vector<std::string> keys,
      TraceContext ctx);

  // Copy-stream primitives shared by migration and catch-up. ScanSlotsOn
  // reads every live key whose shard slot is in `slots`, in user-key order;
  // `missing_msg` is the kInternal message when the partition is absent.
  sim::Task<Result<ScanEntries>> ScanSlotsOn(int node,
                                             iosched::TenantId tenant,
                                             std::vector<int> slots,
                                             iosched::IoTag tag,
                                             const char* missing_msg);

  // Applies `ops` in order on the node's partition — a PUT of each value,
  // a DELETE where it is nullopt — stopping at the first error; the PUT
  // counts cover the successful prefix.
  using WriteOps =
      std::vector<std::pair<std::string, std::optional<std::string>>>;
  struct ApplyResult {
    Status status;
    uint64_t puts_applied = 0;
    uint64_t put_key_bytes = 0;
    uint64_t put_value_bytes = 0;
  };
  sim::Task<ApplyResult> ApplyOpsOn(int node, iosched::TenantId tenant,
                                    WriteOps ops, TraceContext ctx,
                                    iosched::InternalOp op,
                                    const char* missing_msg);

  // Control-plane seams (Post): registration and reservation installs are
  // fire-and-forget — the shares were validated at admission.
  void NodeEnsureTenant(int node, const TenantState& state);
  void NodeInstallReservation(int node, const TenantState& state,
                              iosched::Reservation share);
  void NodeZeroReservation(int node, iosched::TenantId tenant);
  void NodeRecordReplTrigger(int node, iosched::TenantId tenant);
  void NodeRecordReplDone(int node, iosched::TenantId tenant);

  // Re-splits every tenant's global reservation over the currently-alive
  // hosting nodes (no admission check: lost capacity must not strand
  // reservation mass).
  void ResplitForMembership();

  // RF>1 catch-up after RestartNode: re-replicates every slot `node` hosts
  // from a surviving replica (see RestartNode).
  sim::Task<Status> CatchUpNode(int node);
  sim::Task<Status> CatchUpTenant(iosched::TenantSlot index, int node);

  // VOP price of one normalized (1KB) request at admission time.
  double AdmissionPrice(iosched::AppRequest app) const;
  // Priced VOP demand of a local reservation share.
  double PricedVops(const iosched::Reservation& r) const;
  // Even split of `global` over the tenant's alive hosting nodes: per-node
  // reservations proportional to hosted slot replicas, summing exactly to
  // `global`.
  std::map<int, iosched::Reservation> EvenSplit(
      const TenantState& state, const GlobalReservation& global) const;
  // Admission check: can `tenant` place `split` on top of the currently
  // provisioned demand of every other tenant?
  Status CheckAdmission(iosched::TenantId tenant,
                        const std::map<int, iosched::Reservation>& split) const;
  // Installs a split on the nodes (registering the tenant where missing)
  // and remembers it as the tenant's current split.
  void ApplySplit(TenantState& state,
                  const std::map<int, iosched::Reservation>& split);

  sim::MultiLoop& engine_;
  sim::EventLoop& loop_;  // the coordinator: engine_.loop(0)
  ClusterOptions options_;
  ShardMap shard_map_;
  std::vector<std::unique_ptr<kv::StorageNode>> nodes_;
  std::unique_ptr<GlobalProvisioner> provisioner_;

  // Admitted tenants: index_ gives each a dense row of tenants_ at
  // admission and keeps the ascending-id order every output and control
  // step walks. A deque, so admitting a tenant never moves the ShardState
  // a suspended request holds.
  iosched::TenantSlots index_;
  std::deque<TenantState> tenants_;

  // Per-node liveness (indexed like nodes_).
  struct NodeState {
    bool alive = true;
    bool syncing = false;  // restarted; catch-up copy streams still running
  };
  std::vector<NodeState> node_state_;
  // Per-node replication traffic counters (indexed like nodes_).
  struct ReplTelemetry {
    uint64_t fanout_puts = 0;
    uint64_t fanout_bytes = 0;
    uint64_t failover_gets = 0;
    uint64_t catchup_keys = 0;
    uint64_t catchup_bytes = 0;
    int catchup_lag_slots = 0;
  };
  std::vector<ReplTelemetry> repl_;
  RpcFaultInjector* rpc_faults_ = nullptr;
  // Client-request and migration spans are recorded here (coordinator
  // loop) instead of a node's collector, so no collector is ever touched
  // from two threads. Ids are namespaced with seed num_nodes + 1 (nodes use
  // 1..num_nodes).
  std::unique_ptr<obs::SpanCollector> client_spans_;
  obs::RebalanceLog rebalance_log_;
  int active_migrations_ = 0;  // MigrateShard calls currently draining/copying
  uint64_t multiget_groups_ = 0;
  uint64_t multiget_grouped_keys_ = 0;
};

}  // namespace libra::cluster

#endif  // LIBRA_SRC_CLUSTER_CLUSTER_H_
