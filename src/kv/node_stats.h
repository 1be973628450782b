// Whole-node observability snapshot (StorageNode::Snapshot()).
//
// One struct gathers every layer's view at an instant of simulated time:
// device counters, capacity model state, per-tenant app-request latency
// histograms (protocol layer), IO lifecycle histograms per (app request,
// internal op) class (scheduler), LSM background-work accounting, and the
// resource policy's provisioning audit trail. NodeStatsToJson renders it as
// a single JSON document — the payload behind every bench binary's
// --stats-json flag, with a schema locked down by
// tests/kv/node_stats_json_test.cc.

#ifndef LIBRA_SRC_KV_NODE_STATS_H_
#define LIBRA_SRC_KV_NODE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/iosched/io_tag.h"
#include "src/iosched/resource_policy.h"
#include "src/lsm/db.h"
#include "src/obs/audit.h"
#include "src/obs/conformance.h"
#include "src/obs/histogram.h"
#include "src/obs/io_stats.h"
#include "src/obs/sla.h"
#include "src/ssd/device.h"

namespace libra::kv {

// One (app request, internal op) IO class with activity.
struct IoClassSnapshot {
  iosched::AppRequest app = iosched::AppRequest::kNone;
  iosched::InternalOp internal = iosched::InternalOp::kNone;
  obs::IoClassStats stats;
};

// Observed-vs-declared attribution matrix for one tenant (derived from the
// scheduler's ResourceTracker; tracing need not be on).
struct AttributionSnapshot {
  bool observed = false;  // the tracker has data for this tenant
  obs::AttributionMatrix matrix;
  obs::DeclaredAttribution declared;
  obs::ConformanceReport report;  // valid when observed && declared
  bool conformant = true;
  double tolerance = 0.0;
};

// SLA conformance for one tenant (from the policy's SlaMonitor).
struct SlaSnapshot {
  bool tracked = false;
  obs::SlaMonitor::TenantSla sla;
};

struct TenantSnapshot {
  iosched::TenantId tenant = iosched::kInvalidTenant;
  iosched::Reservation reservation;
  double allocation_vops = 0.0;
  // End-to-end app-request latency (protocol layer; includes cache hits).
  obs::LatencyHistogram get_latency;
  obs::LatencyHistogram put_latency;
  obs::LatencyHistogram scan_latency;
  // The tenant's LSM compaction policy (0 = leveled, 1 = size-tiered).
  uint8_t compaction_policy = 0;
  // Scheduler lifecycle rollup across all classes, plus the breakdown.
  obs::IoClassStats io_total;
  std::vector<IoClassSnapshot> io_classes;  // only classes with ops > 0
  lsm::LsmStats lsm;
  AttributionSnapshot attribution;
  SlaSnapshot sla;
};

// Protocol-layer object (LRU) cache counters. `enabled` is false when the
// node runs cache-less (the paper's disk-bound configuration); the counters
// are then all zero.
struct ObjectCacheSnapshot {
  bool enabled = false;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t resident_bytes = 0;
  uint64_t entries = 0;
};

// Node-shared SSTable BlockCache rollup (all tenants, all block kinds).
// `enabled` is false when partitions run per-DB caches or cache-less; the
// per-tenant breakdown lives in each TenantSnapshot's lsm stats.
struct BlockCacheSnapshot {
  bool enabled = false;
  uint64_t capacity_bytes = 0;
  uint64_t resident_bytes = 0;
  uint64_t entries = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

// Causal span collector counters (scheduler's SpanCollector).
struct SpanCollectorSnapshot {
  bool enabled = false;
  uint64_t capacity = 0;
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  uint64_t minted_traces = 0;
  uint64_t sampled_out = 0;
  uint32_t sample_every = 1;
};

// Replication role and traffic counters for this node (filled by the
// cluster layer after StorageNode::Snapshot; all defaults for a standalone
// node). `enabled` is true when the cluster runs with RF > 1.
struct ReplicationSnapshot {
  bool enabled = false;
  bool alive = true;     // false between CrashNode and RestartNode
  bool syncing = false;  // restarted; catch-up copy streams still running
  int leader_slots = 0;    // (tenant, slot) pairs this node leads
  int follower_slots = 0;  // (tenant, slot) pairs this node follows
  uint64_t fanout_puts = 0;   // replica writes forwarded to this node
  uint64_t fanout_bytes = 0;  // payload bytes of those forwarded writes
  uint64_t failover_gets = 0;  // GETs this node served for a down leader
  uint64_t catchup_keys = 0;   // keys copied INTO this node by catch-up
  uint64_t catchup_bytes = 0;  // value bytes of those copied keys
  int catchup_lag_slots = 0;   // slots still awaiting catch-up (0 if synced)
};

// Crash/recovery accounting for this node (filled by StorageNode).
struct RecoverySnapshot {
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t wal_files_replayed = 0;  // across all restarts
  uint64_t replay_records = 0;
  uint64_t replay_bytes = 0;
  // Cumulative VOPs consumed by the re-replication copy stream (the
  // InternalOp::kReplicate class, reads + writes, summed over tenants) —
  // recovery work priced in the same currency as everything else.
  double rereplication_vops = 0.0;
};

struct NodeStats {
  int64_t time_ns = 0;
  ssd::DeviceStats device;
  double capacity_floor_vops = 0.0;
  double capacity_estimate_vops = 0.0;
  uint64_t scheduler_rounds = 0;
  SpanCollectorSnapshot spans;
  ObjectCacheSnapshot object_cache;
  BlockCacheSnapshot block_cache;
  // GETs served by riding another request's in-flight lookup (read
  // coalescing; 0 unless NodeOptions.enable_read_coalescing).
  uint64_t coalesced_gets = 0;
  ReplicationSnapshot replication;
  RecoverySnapshot recovery;
  std::vector<TenantSnapshot> tenants;
  std::vector<obs::AuditRecord> audit;  // the policy's retained records
};

// Renders the snapshot as one JSON document (schema documented in
// DESIGN.md "Observability"; validated by tests/kv/node_stats_json_test.cc).
std::string NodeStatsToJson(const NodeStats& stats);

}  // namespace libra::kv

#endif  // LIBRA_SRC_KV_NODE_STATS_H_
