#include <string>

#include "src/cluster/cluster.h"
#include "src/kv/node_stats.h"
#include "src/obs/json.h"

namespace libra::cluster {

namespace {

const char* KindName(obs::RebalanceRecord::Kind kind) {
  switch (kind) {
    case obs::RebalanceRecord::Kind::kSplit:
      return "split";
    case obs::RebalanceRecord::Kind::kMigration:
      return "migration";
  }
  return "unknown";
}

}  // namespace

std::string ClusterStatsToJson(const ClusterStats& stats) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("time_ns");
  w.Int(stats.time_ns);

  w.Key("nodes");
  w.BeginArray();
  for (const kv::NodeStats& node : stats.nodes) {
    w.Raw(kv::NodeStatsToJson(node));
  }
  w.EndArray();

  w.Key("tenants");
  w.BeginArray();
  for (const ClusterStats::TenantEntry& t : stats.tenants) {
    w.BeginObject();
    w.Key("tenant");
    w.Uint(t.tenant);
    w.Key("global_get_rps");
    w.Double(t.global.get_rps());
    w.Key("global_put_rps");
    w.Double(t.global.put_rps());
    w.Key("global_scan_rps");
    w.Double(t.global.scan_rps());
    w.Key("compaction");
    w.String(t.compaction == lsm::CompactionPolicy::kSizeTiered ? "tiered"
                                                                : "leveled");
    w.Key("slot_homes");
    w.BeginArray();
    for (const int node : t.slot_homes) {
      w.Int(node);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("rebalances");
  w.BeginArray();
  for (const obs::RebalanceRecord& r : stats.rebalances) {
    w.BeginObject();
    w.Key("kind");
    w.String(KindName(r.kind));
    w.Key("time_ns");
    w.Int(r.time_ns);
    w.Key("tenant");
    w.Uint(r.tenant);
    if (r.kind == obs::RebalanceRecord::Kind::kSplit) {
      w.Key("nodes");
      w.Int(r.nodes);
    } else {
      w.Key("slot");
      w.Int(r.slot);
      w.Key("from_node");
      w.Int(r.from_node);
      w.Key("to_node");
      w.Int(r.to_node);
      w.Key("keys_moved");
      w.Uint(r.keys_moved);
    }
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.Take();
}

}  // namespace libra::cluster
