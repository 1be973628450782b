#include "src/kv/node_stats.h"

#include "src/obs/json.h"

namespace libra::kv {
namespace {

using obs::HistogramToJson;
using obs::JsonWriter;

// The attributable application request classes, in enum order — every
// per-class JSON section below loops over these (never kNone).
constexpr iosched::AppRequest kAppClasses[] = {
    iosched::AppRequest::kGet,
    iosched::AppRequest::kPut,
    iosched::AppRequest::kScan,
};

// Lower-case per-class JSON key suffix ("reserved_get_rps", "profile_scan",
// ...). Exhaustive: a new AppRequest breaks this switch at compile time.
const char* AppKeySuffix(iosched::AppRequest a) {
  switch (a) {
    case iosched::AppRequest::kNone:
      return "none";
    case iosched::AppRequest::kGet:
      return "get";
    case iosched::AppRequest::kPut:
      return "put";
    case iosched::AppRequest::kScan:
      return "scan";
  }
  return "?";  // unreachable for in-range values
}

const char* CompactionPolicyName(uint8_t policy) {
  return policy == 0 ? "leveled" : "tiered";
}

void WriteIoClassStats(JsonWriter& w, const obs::IoClassStats& s,
                       bool include_buckets) {
  w.BeginObject();
  w.Key("ops");
  w.Uint(s.ops);
  w.Key("chunks");
  w.Uint(s.chunks);
  w.Key("bytes");
  w.Uint(s.bytes);
  w.Key("queue_wait");
  w.Raw(HistogramToJson(s.queue_wait, include_buckets));
  w.Key("device_service");
  w.Raw(HistogramToJson(s.service, include_buckets));
  w.EndObject();
}

void WriteAuditRecord(JsonWriter& w, const obs::AuditRecord& rec) {
  w.BeginObject();
  w.Key("time_ns");
  w.Int(rec.time_ns);
  w.Key("total_required_vops");
  w.Double(rec.total_required_vops);
  w.Key("capacity_floor_vops");
  w.Double(rec.capacity_floor_vops);
  w.Key("scale");
  w.Double(rec.scale);
  w.Key("overbooked");
  w.Bool(rec.overbooked);
  w.Key("tenants");
  w.BeginArray();
  for (const obs::AuditTenantEntry& e : rec.tenants) {
    w.BeginObject();
    w.Key("tenant");
    w.Uint(e.tenant);
    for (const iosched::AppRequest app : kAppClasses) {
      const int a = static_cast<int>(app);
      w.Key(std::string("reserved_") + AppKeySuffix(app) + "_rps");
      w.Double(e.reserved_rps[a]);
    }
    for (const iosched::AppRequest app : kAppClasses) {
      const int a = static_cast<int>(app);
      w.Key(std::string("profile_") + AppKeySuffix(app));
      w.BeginObject();
      w.Key("direct");
      w.Double(e.profile_direct[a]);
      w.Key("flush");
      w.Double(e.profile_flush[a]);
      w.Key("compact");
      w.Double(e.profile_compact[a]);
      w.EndObject();
    }
    for (const iosched::AppRequest app : kAppClasses) {
      w.Key(std::string("price_") + AppKeySuffix(app));
      w.Double(e.price[static_cast<int>(app)]);
    }
    w.Key("compaction_policy");
    w.String(CompactionPolicyName(e.compaction_policy));
    w.Key("required_vops");
    w.Double(e.required_vops);
    w.Key("granted_vops");
    w.Double(e.granted_vops);
    w.Key("achieved_vops");
    w.Double(e.achieved_vops);
    w.Key("sla_violated");
    w.Bool(e.sla_violated);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void WriteAttribution(JsonWriter& w, const AttributionSnapshot& a) {
  w.BeginObject();
  w.Key("observed");
  w.Bool(a.observed);
  w.Key("declared");
  w.Bool(a.declared.declared);
  w.Key("total_vops");
  w.Double(a.matrix.total_vops);
  w.Key("norm_requests");
  w.BeginObject();
  for (const iosched::AppRequest app : kAppClasses) {
    w.Key(iosched::AppRequestName(app));
    w.Double(a.matrix.norm_requests[static_cast<int>(app)]);
  }
  w.EndObject();
  // Full observed/declared q matrix over the app x internal vocabulary
  // (only the attributable rows — nothing is ever declared for `none`).
  w.Key("q");
  w.BeginArray();
  for (const iosched::AppRequest app : kAppClasses) {
    for (int i = 0; i < obs::kAttrInternal; ++i) {
      w.BeginObject();
      w.Key("app");
      w.String(iosched::AppRequestName(app));
      w.Key("internal");
      w.String(iosched::InternalOpName(static_cast<iosched::InternalOp>(i)));
      w.Key("observed");
      w.Double(a.matrix.Q(static_cast<int>(app), i));
      w.Key("declared");
      w.Double(a.declared.q[static_cast<int>(app)][i]);
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("divergence");
  w.Double(a.report.divergence);
  w.Key("tolerance");
  w.Double(a.tolerance);
  w.Key("conformant");
  w.Bool(a.conformant);
  w.Key("worst");
  w.BeginObject();
  w.Key("app");
  w.String(iosched::AppRequestName(
      static_cast<iosched::AppRequest>(a.report.worst_app)));
  w.Key("internal");
  w.String(iosched::InternalOpName(
      static_cast<iosched::InternalOp>(a.report.worst_internal)));
  w.Key("observed");
  w.Double(a.report.worst_observed);
  w.Key("declared");
  w.Double(a.report.worst_declared);
  w.EndObject();
  w.EndObject();
}

void WriteSla(JsonWriter& w, const SlaSnapshot& s) {
  w.BeginObject();
  w.Key("tracked");
  w.Bool(s.tracked);
  w.Key("intervals");
  w.Uint(s.sla.intervals);
  w.Key("violations");
  w.Uint(s.sla.violations);
  w.Key("violation_rate");
  w.Double(s.sla.violation_rate());
  w.Key("last_reserved_vops");
  w.Double(s.sla.last_reserved_vops);
  w.Key("last_achieved_vops");
  w.Double(s.sla.last_achieved_vops);
  w.Key("last_violated");
  w.Bool(s.sla.last_violated);
  w.EndObject();
}

}  // namespace

std::string NodeStatsToJson(const NodeStats& stats) {
  JsonWriter w;
  w.BeginObject();
  w.Key("time_ns");
  w.Int(stats.time_ns);

  w.Key("device");
  w.BeginObject();
  w.Key("reads_completed");
  w.Uint(stats.device.reads_completed);
  w.Key("writes_completed");
  w.Uint(stats.device.writes_completed);
  w.Key("read_bytes");
  w.Uint(stats.device.read_bytes);
  w.Key("write_bytes");
  w.Uint(stats.device.write_bytes);
  w.Key("gc_pages_moved");
  w.Uint(stats.device.gc_pages_moved);
  w.Key("blocks_erased");
  w.Uint(stats.device.blocks_erased);
  w.Key("write_amp");
  w.Double(stats.device.write_amp);
  w.Key("avg_queue_depth");
  w.Double(stats.device.avg_queue_depth);
  w.EndObject();

  w.Key("capacity");
  w.BeginObject();
  w.Key("floor_vops");
  w.Double(stats.capacity_floor_vops);
  w.Key("estimate_vops");
  w.Double(stats.capacity_estimate_vops);
  w.EndObject();

  w.Key("scheduler");
  w.BeginObject();
  w.Key("rounds");
  w.Uint(stats.scheduler_rounds);
  w.EndObject();

  w.Key("spans");
  w.BeginObject();
  w.Key("enabled");
  w.Bool(stats.spans.enabled);
  w.Key("capacity");
  w.Uint(stats.spans.capacity);
  w.Key("recorded");
  w.Uint(stats.spans.recorded);
  w.Key("dropped");
  w.Uint(stats.spans.dropped);
  w.Key("minted_traces");
  w.Uint(stats.spans.minted_traces);
  w.Key("sampled_out");
  w.Uint(stats.spans.sampled_out);
  w.Key("sample_every");
  w.Uint(stats.spans.sample_every);
  w.EndObject();

  w.Key("object_cache");
  w.BeginObject();
  w.Key("enabled");
  w.Bool(stats.object_cache.enabled);
  w.Key("hits");
  w.Uint(stats.object_cache.hits);
  w.Key("misses");
  w.Uint(stats.object_cache.misses);
  w.Key("evictions");
  w.Uint(stats.object_cache.evictions);
  w.Key("resident_bytes");
  w.Uint(stats.object_cache.resident_bytes);
  w.Key("entries");
  w.Uint(stats.object_cache.entries);
  w.EndObject();

  w.Key("block_cache");
  w.BeginObject();
  w.Key("enabled");
  w.Bool(stats.block_cache.enabled);
  w.Key("capacity_bytes");
  w.Uint(stats.block_cache.capacity_bytes);
  w.Key("resident_bytes");
  w.Uint(stats.block_cache.resident_bytes);
  w.Key("entries");
  w.Uint(stats.block_cache.entries);
  w.Key("hits");
  w.Uint(stats.block_cache.hits);
  w.Key("misses");
  w.Uint(stats.block_cache.misses);
  w.Key("evictions");
  w.Uint(stats.block_cache.evictions);
  w.EndObject();

  w.Key("coalesced_gets");
  w.Uint(stats.coalesced_gets);

  w.Key("replication");
  w.BeginObject();
  w.Key("enabled");
  w.Bool(stats.replication.enabled);
  w.Key("alive");
  w.Bool(stats.replication.alive);
  w.Key("syncing");
  w.Bool(stats.replication.syncing);
  w.Key("leader_slots");
  w.Int(stats.replication.leader_slots);
  w.Key("follower_slots");
  w.Int(stats.replication.follower_slots);
  w.Key("fanout_puts");
  w.Uint(stats.replication.fanout_puts);
  w.Key("fanout_bytes");
  w.Uint(stats.replication.fanout_bytes);
  w.Key("failover_gets");
  w.Uint(stats.replication.failover_gets);
  w.Key("catchup_keys");
  w.Uint(stats.replication.catchup_keys);
  w.Key("catchup_bytes");
  w.Uint(stats.replication.catchup_bytes);
  w.Key("catchup_lag_slots");
  w.Int(stats.replication.catchup_lag_slots);
  w.EndObject();

  w.Key("recovery");
  w.BeginObject();
  w.Key("crashes");
  w.Uint(stats.recovery.crashes);
  w.Key("restarts");
  w.Uint(stats.recovery.restarts);
  w.Key("wal_files_replayed");
  w.Uint(stats.recovery.wal_files_replayed);
  w.Key("replay_records");
  w.Uint(stats.recovery.replay_records);
  w.Key("replay_bytes");
  w.Uint(stats.recovery.replay_bytes);
  w.Key("rereplication_vops");
  w.Double(stats.recovery.rereplication_vops);
  w.EndObject();

  w.Key("tenants");
  w.BeginArray();
  for (const TenantSnapshot& t : stats.tenants) {
    w.BeginObject();
    w.Key("tenant");
    w.Uint(t.tenant);
    w.Key("reservation");
    w.BeginObject();
    for (const iosched::AppRequest app : kAppClasses) {
      w.Key(std::string(AppKeySuffix(app)) + "_rps");
      w.Double(t.reservation.RateOf(app));
    }
    w.EndObject();
    w.Key("allocation_vops");
    w.Double(t.allocation_vops);
    w.Key("requests");
    w.BeginObject();
    w.Key("GET");
    w.Raw(HistogramToJson(t.get_latency, /*include_buckets=*/true));
    w.Key("PUT");
    w.Raw(HistogramToJson(t.put_latency, /*include_buckets=*/true));
    w.Key("SCAN");
    w.Raw(HistogramToJson(t.scan_latency, /*include_buckets=*/true));
    w.EndObject();
    w.Key("io");
    w.BeginObject();
    w.Key("total");
    WriteIoClassStats(w, t.io_total, /*include_buckets=*/true);
    w.Key("classes");
    w.BeginArray();
    for (const IoClassSnapshot& c : t.io_classes) {
      w.BeginObject();
      w.Key("app");
      w.String(iosched::AppRequestName(c.app));
      w.Key("internal");
      w.String(iosched::InternalOpName(c.internal));
      w.Key("stats");
      WriteIoClassStats(w, c.stats, /*include_buckets=*/false);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.Key("lsm");
    w.BeginObject();
    w.Key("puts");
    w.Uint(t.lsm.puts);
    w.Key("gets");
    w.Uint(t.lsm.gets);
    w.Key("flushes");
    w.Uint(t.lsm.flushes);
    w.Key("flush_bytes");
    w.Uint(t.lsm.flush_bytes);
    w.Key("flush_ns");
    w.Uint(t.lsm.flush_ns);
    w.Key("compactions");
    w.Uint(t.lsm.compactions);
    w.Key("compact_bytes_read");
    w.Uint(t.lsm.compact_bytes_read);
    w.Key("compact_bytes_written");
    w.Uint(t.lsm.compact_bytes_written);
    w.Key("compact_ns");
    w.Uint(t.lsm.compact_ns);
    w.Key("stalls");
    w.Uint(t.lsm.stalls);
    w.Key("stall_ns");
    w.Uint(t.lsm.stall_ns);
    w.Key("tables_probed");
    w.Uint(t.lsm.tables_probed);
    w.Key("scans");
    w.Uint(t.lsm.scans);
    w.Key("scan_keys");
    w.Uint(t.lsm.scan_keys);
    w.Key("scan_bytes");
    w.Uint(t.lsm.scan_bytes);
    w.Key("compaction_policy");
    w.String(CompactionPolicyName(t.compaction_policy));
    w.Key("wal");
    w.BeginObject();
    w.Key("appends");
    w.Uint(t.lsm.wal_appends);
    w.Key("batches");
    w.Uint(t.lsm.wal_batches);
    w.Key("batched_records");
    w.Uint(t.lsm.wal_batched_records);
    w.Key("max_batch_records");
    w.Uint(t.lsm.wal_max_batch_records);
    w.EndObject();
    w.Key("bloom");
    w.BeginObject();
    w.Key("probes");
    w.Uint(t.lsm.bloom_probes);
    w.Key("negatives");
    w.Uint(t.lsm.bloom_negatives);
    w.Key("false_positives");
    w.Uint(t.lsm.bloom_false_positives);
    w.EndObject();
    w.Key("block_cache");
    w.BeginObject();
    w.Key("index_hits");
    w.Uint(t.lsm.bcache_index_hits);
    w.Key("index_misses");
    w.Uint(t.lsm.bcache_index_misses);
    w.Key("filter_hits");
    w.Uint(t.lsm.bcache_filter_hits);
    w.Key("filter_misses");
    w.Uint(t.lsm.bcache_filter_misses);
    w.Key("data_hits");
    w.Uint(t.lsm.bcache_data_hits);
    w.Key("data_misses");
    w.Uint(t.lsm.bcache_data_misses);
    w.Key("evictions");
    w.Uint(t.lsm.bcache_evictions);
    w.Key("resident_bytes");
    w.Uint(t.lsm.bcache_resident_bytes);
    w.Key("capacity_bytes");
    w.Uint(t.lsm.bcache_capacity_bytes);
    w.EndObject();
    w.Key("read_path");
    w.BeginObject();
    w.Key("index_block_reads");
    w.Uint(t.lsm.index_block_reads);
    w.Key("filter_block_reads");
    w.Uint(t.lsm.filter_block_reads);
    w.Key("data_block_reads");
    w.Uint(t.lsm.data_block_reads);
    w.Key("data_cache_hits");
    w.Uint(t.lsm.data_cache_hits);
    w.EndObject();
    w.Key("files_per_level");
    w.BeginArray();
    for (int n : t.lsm.files_per_level) {
      w.Int(n);
    }
    w.EndArray();
    w.EndObject();
    w.Key("attribution");
    WriteAttribution(w, t.attribution);
    w.Key("sla");
    WriteSla(w, t.sla);
    w.EndObject();
  }
  w.EndArray();

  w.Key("audit");
  w.BeginArray();
  for (const obs::AuditRecord& rec : stats.audit) {
    WriteAuditRecord(w, rec);
  }
  w.EndArray();

  w.EndObject();
  return w.Take();
}

}  // namespace libra::kv
