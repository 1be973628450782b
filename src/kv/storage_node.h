// Multi-tenant key-value storage node — the full per-node stack of Fig. 1:
// protocol/cache layer, per-tenant LSM partitions, the Libra IO scheduler
// and resource policy over a simulated SSD.
//
// This is the library's primary user-facing facade: register tenants with
// app-request reservations (normalized 1KB requests/s per class — GET, PUT,
// SCAN — as a system-wide policy such as Pisces would set per node), issue
// GET/PUT/DEL/SCAN, and Libra provisions VOP allocations to meet the
// reservations while staying work-conserving.

#ifndef LIBRA_SRC_KV_STORAGE_NODE_H_
#define LIBRA_SRC_KV_STORAGE_NODE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/trace_context.h"
#include "src/fs/sim_fs.h"
#include "src/iosched/capacity.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/resource_policy.h"
#include "src/iosched/scheduler.h"
#include "src/kv/cache.h"
#include "src/kv/node_stats.h"
#include "src/lsm/db.h"
#include "src/obs/histogram.h"
#include "src/sim/event_loop.h"
#include "src/ssd/calibration.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::kv {

struct NodeOptions {
  ssd::DeviceProfile device_profile;        // defaults to Intel 320
  ssd::DeviceOptions device_options;
  ssd::CalibrationTable calibration;        // cost-model source (required)
  std::string cost_model = "exact";         // exact|fitted|constant|linear|fixed
  iosched::SchedulerOptions scheduler_options;
  iosched::PolicyOptions policy_options;
  double capacity_floor_vops = iosched::kIntel320VopFloor;
  // lsm_options.bloom_bits_per_key turns on per-SSTable bloom filters;
  // lsm_options.block_cache_bytes makes the node own ONE BlockCache shared
  // by every tenant's partition (single budget, per-tenant accounting)
  // rather than a per-partition cache. Both default off.
  lsm::LsmOptions lsm_options;
  bool enable_cache = false;                // paper's experiments: disabled
  size_t cache_bytes = 64 * kMiB;
  // Singleflight for duplicate in-flight GETs of the same (tenant, key):
  // followers ride the leader's LSM lookup instead of issuing their own
  // index/data block reads. Off by default (paper-faithful: every GET pays
  // its own IO).
  bool enable_read_coalescing = false;
  uint64_t prefill_bytes = 1ULL * kGiB;     // device preconditioning
  // Attribution-conformance flagging threshold: a tenant whose observed
  // q̂^{a,i} diverges from its declared profile by more than this relative
  // error (on any significant cell) is reported non-conformant in the
  // stats JSON. Only meaningful when the tenant declared a profile.
  double attribution_tolerance = 0.25;

  NodeOptions() : device_profile(ssd::Intel320Profile()) {}
};

class StorageNode {
 public:
  StorageNode(sim::EventLoop& loop, NodeOptions options);

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  // Registers a tenant with its local app-request reservation and creates
  // its partition (on a crashed node, Restart() opens it). Rejects
  // registered tenants (kAlreadyExists), crashed or not, and malformed
  // reservations (kInvalidArgument: negative or non-finite rates; zero is
  // legal and means best-effort).
  // `declared` is the attribution profile the tenant claims (VOPs per
  // normalized request by app-request x internal-op cell); when provided,
  // the conformance monitor verifies the observed matrix against it.
  // `compaction` is the tenant's LSM compaction policy — a per-tenant
  // choice that shapes the indirect profile (and so the per-class VOP
  // prices); it sticks across Restart() and is stamped on audit records.
  Status AddTenant(
      iosched::TenantId tenant, iosched::Reservation reservation,
      obs::DeclaredAttribution declared = {},
      lsm::CompactionPolicy compaction = lsm::CompactionPolicy::kLeveled);

  // Replaces a registered tenant's reservation. Rejects unknown tenants
  // (kNotFound) and malformed reservations (kInvalidArgument), mirroring
  // AddTenant.
  Status UpdateReservation(iosched::TenantId tenant,
                           iosched::Reservation reservation);

  // Starts the resource policy's periodic reprovisioning.
  void Start() { policy_.Start(); }
  void Stop() { policy_.Stop(); }

  // --- crash / recovery simulation ---

  // Crash(): stops the policy, kills every partition (in-flight coroutines
  // unwind at their next suspension point) and gates the request API
  // behind kUnavailable. The device, filesystem and reservations survive —
  // disk contents and control-plane state are durable; only the process
  // dies. Killed partitions are parked in a graveyard until Restart().
  void Crash();
  bool crashed() const { return crashed_; }

  // Restart(): waits for the killed partitions' coroutines to unwind,
  // destroys them (their installed SSTs are reclaimed — with no manifest,
  // table metadata died with the process; WAL files persist), then
  // recreates every tenant's partition over the same prefix so Open()
  // replays the surviving WALs. Reservations and declared profiles are
  // restored from the policy, which kept them. Resumes the policy. The
  // cluster layer drives re-replication catch-up afterwards.
  sim::Task<Status> Restart();

  // Cumulative recovery accounting across all restarts of this node.
  uint64_t crashes() const { return recovery_.crashes; }
  uint64_t restarts() const { return recovery_.restarts; }

  // --- request API (coroutines; suspend on IO scheduling) ---

  // `ctx` is an optional caller span (the cluster layer's client-request
  // span); when invalid and tracing is on, the node mints a root trace for
  // the request (honoring the collector's 1/N sampling).
  //
  // The one write verb: stores `value`, or a tombstone when it is nullopt.
  // A DELETE is a PUT of its key for accounting — billed, traced and timed
  // as AppRequest::kPut with key-size bytes — and erases the key from the
  // object cache where a PUT writes through. `value` views the caller's
  // bytes, which must outlive the returned task.
  sim::Task<Status> Write(iosched::TenantId tenant, const std::string& key,
                          std::optional<std::string_view> value,
                          TraceContext ctx = {});
  sim::Task<Status> Put(iosched::TenantId tenant, const std::string& key,
                        const std::string& value, TraceContext ctx = {}) {
    return Write(tenant, key, value, ctx);
  }
  sim::Task<Status> Delete(iosched::TenantId tenant, const std::string& key,
                           TraceContext ctx = {}) {
    return Write(tenant, key, std::nullopt, ctx);
  }

  sim::Task<Result<std::string>> Get(iosched::TenantId tenant,
                                     const std::string& key,
                                     TraceContext ctx = {});

  // Bounded range scan over [start, end) — empty `end` = to the end of the
  // keyspace — yielding at most `limit` live entries (0 = no limit). A
  // merge-read across the tenant's whole LSM partition; its IO is charged
  // to the SCAN class and billed by the bytes it returns (min. one
  // normalized request), so range reads carry their own q̂^{a,i} column.
  sim::Task<lsm::LsmDb::ScanResult> Scan(iosched::TenantId tenant,
                                         const std::string& start,
                                         const std::string& end, size_t limit,
                                         TraceContext ctx = {});

  // --- introspection for evaluation harnesses ---

  iosched::IoScheduler& scheduler() { return scheduler_; }
  iosched::ResourcePolicy& policy() { return policy_; }
  iosched::ResourceTracker& tracker() { return scheduler_.tracker(); }
  iosched::CapacityModel& capacity() { return capacity_; }
  ssd::SsdDevice& device() { return device_; }
  fs::SimFs& filesystem() { return fs_; }
  // The tenant's open LSM partition; nullptr when the tenant is unknown or
  // the node is crashed.
  lsm::LsmDb* partition(iosched::TenantId tenant);
  // Registered tenants, crashed or not: their reservations and partitions
  // outlive a crash.
  bool HasTenant(iosched::TenantId tenant) const {
    return Registered(tenant) != nullptr;
  }
  // Tenants with an open partition, in id order (none while crashed).
  std::vector<iosched::TenantId> tenants() const;
  const LruCache* cache() const { return cache_.get(); }
  // The node-shared SSTable block cache; nullptr unless
  // lsm_options.block_cache_bytes > 0.
  const lsm::BlockCache* block_cache() const { return block_cache_.get(); }
  // GETs that rode another request's in-flight lookup (read coalescing).
  uint64_t coalesced_gets() const { return coalesced_gets_; }

  // Gathers every layer's statistics at the current simulated time; the
  // JSON rendering is NodeStatsToJson (node_stats.h).
  NodeStats Snapshot() const;

 private:
  // One registered tenant: its LSM partition and the latencies of the app
  // requests it served. The entry lives as long as the node; only the DB
  // dies with a crash.
  struct Partition {
    iosched::TenantSlot slot = iosched::TenantSlot::kNone;
    std::unique_ptr<lsm::LsmDb> db;  // nullptr while the node is crashed
    obs::LatencyHistogram get_latency;
    obs::LatencyHistogram put_latency;
    obs::LatencyHistogram scan_latency;
  };

  // The entry in `slot`, or nullptr when the slot is not a tenant of this
  // node. Entries are never erased or moved, so the pointer stays valid
  // across a request's suspensions.
  Partition* PartitionAt(iosched::TenantSlot slot) const {
    const size_t i = iosched::SlotIndex(slot);
    return i < partitions_.size() ? partitions_[i].get() : nullptr;
  }
  // The tenant's entry (one registry search), or nullptr when unregistered.
  Partition* Registered(iosched::TenantId tenant) const {
    return PartitionAt(scheduler_.slots().Find(tenant));
  }
  // The tenant's entry when its DB is open, else nullptr.
  Partition* OpenPartition(iosched::TenantId tenant);

  // The tenant's LsmOptions: the node-wide base with the tenant's declared
  // compaction policy applied.
  lsm::LsmOptions TenantLsmOptions(iosched::TenantId tenant) const;

  sim::EventLoop& loop_;
  NodeOptions options_;
  ssd::SsdDevice device_;
  iosched::IoScheduler scheduler_;
  fs::SimFs fs_;
  iosched::CapacityModel capacity_;
  iosched::ResourcePolicy policy_;
  std::unique_ptr<LruCache> cache_;
  // Node-shared SSTable block cache (see NodeOptions.lsm_options). Declared
  // before partitions_/graveyard_: their TableHandle destructors erase
  // blocks from it, so it must outlive them.
  std::unique_ptr<lsm::BlockCache> block_cache_;
  // By TenantSlot (the scheduler's registry); nullptr for a slot that is
  // not a registered tenant of this node.
  std::vector<std::unique_ptr<Partition>> partitions_;
  // Killed partitions awaiting quiescence (see Crash/Restart). Declared
  // next to partitions_ so destruction order versus fs_/scheduler_ is the
  // same for both.
  std::vector<std::unique_ptr<lsm::LsmDb>> graveyard_;
  bool crashed_ = false;
  bool policy_was_running_ = false;  // policy state to restore at Restart()
  // Crash/restart counts and the WAL replay totals of every restart (the
  // per-partition LsmStats reset with each new incarnation).
  // rereplication_vops is read from the tracker at Snapshot().
  RecoverySnapshot recovery_;
  // Singleflight table: in-flight GET leaders keyed by (tenant slot, key);
  // followers park a OneShot here and are resolved when the leader's
  // lookup lands. Single-threaded coroutine interleaving makes the
  // find-or-claim race-free. The leader's span context is kept so follower
  // spans can link the lookup they rode.
  struct GetFlight {
    TraceContext leader_ctx;
    std::vector<sim::OneShot<Result<std::string>>*> waiters;
  };
  std::map<std::pair<iosched::TenantSlot, std::string>, GetFlight>
      inflight_gets_;
  uint64_t coalesced_gets_ = 0;
};

}  // namespace libra::kv

#endif  // LIBRA_SRC_KV_STORAGE_NODE_H_
