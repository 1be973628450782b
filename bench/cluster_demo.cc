// Multi-node cluster demo: the paper's two-tier story end to end.
//
// --nodes storage nodes (default 4) behind the Cluster API. Three tenants
// with global app-request reservations and deliberately skewed demand —
// tenant 1's keys are Zipf-hot, so a couple of shard slots (and therefore
// nodes) carry most of its load. The global provisioner re-splits each
// tenant's reservation toward the observed per-node demand; the demo then
// checks the contract the cluster layer makes:
//   1. every tenant's achieved global throughput meets its global
//      reservation after convergence,
//   2. an over-booked AddTenant is rejected up front with a descriptive
//      status,
//   3. a shard migration under live traffic completes without losing a key.
// The demo is one deterministic virtual-time simulation, so its output is
// identical for any --jobs value and, at a fixed --rpc-latency-us, for any
// --sim-threads value on the epoch-barrier engine.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/kv_bench_common.h"
#include "src/cluster/cluster.h"
#include "src/cluster/global_provisioner.h"
#include "src/metrics/table.h"
#include "src/workload/cluster_workload.h"

namespace libra::bench {
namespace {

using cluster::Cluster;
using cluster::GlobalReservation;
using iosched::AppRequest;
using iosched::TenantId;

struct TenantSpec {
  TenantId tenant;
  GlobalReservation global;  // normalized (1KB) requests/s, cluster-wide
  double get_fraction;
  double zipf_theta;  // > 0: hot keys concentrate demand on a few shards
};

constexpr TenantSpec kTenants[] = {
    {1, {1200.0, 250.0}, 0.8, 0.99},  // skewed reader
    {2, {800.0, 200.0}, 0.5, 0.0},    // uniform mixed
    {3, {400.0, 300.0}, 0.3, 0.0},    // uniform write-lean
};

sim::Task<void> PreloadAll(
    std::vector<std::unique_ptr<workload::ClusterTenantWorkload>>* workloads) {
  for (auto& wl : *workloads) {
    co_await wl->Preload();
  }
}

sim::Task<void> RunExplicitMigration(Cluster* cluster, TenantId tenant,
                                     int slot, int to_node, Status* out) {
  *out = co_await cluster->MigrateShard(tenant, slot, to_node);
}

// Re-reads every stable (GET-range) object of `slot` and compares it to the
// value the preload provably wrote (MakeValue over the per-index size).
sim::Task<void> VerifySlot(workload::ClusterTenantWorkload* wl,
                           const cluster::ShardMap* map, int slot,
                           uint64_t* checked, uint64_t* lost) {
  for (uint64_t i = 0; i < wl->get_keys(); ++i) {
    const std::string key = wl->GetKey(i);
    if (map->SlotOfKey(key) != slot) {
      continue;
    }
    const Result<std::string> r = co_await wl->handle().Get(key);
    ++*checked;
    if (!r.ok() ||
        r.value() != workload::MakeValue(key, wl->GetObjectSize(i))) {
      ++*lost;
    }
  }
}

int RunDemo(const BenchArgs& args) {
  SimRig rig = MakeSimRig(args, args.nodes);
  sim::EventLoop& loop = rig.client();
  cluster::ClusterOptions copt;
  copt.num_nodes = args.nodes;
  copt.node_options = PrototypeNodeOptions();
  copt.provisioner.interval = 1 * kSecond;
  // Request-path batching on: WAL group commit (with fair VOP cost
  // splitting), singleflight GETs, slot-grouped MultiGet, and a bounded
  // table cache. The figure binaries keep the paper-faithful defaults;
  // the demo runs the batched configuration end to end.
  copt.batch_multiget = true;
  copt.node_options.enable_read_coalescing = true;
  copt.node_options.lsm_options.wal_group_commit = true;
  copt.node_options.lsm_options.table_cache_bytes = 256 * kKiB;
  std::unique_ptr<Cluster> cl_holder = MakeCluster(rig, copt);
  Cluster& cl = *cl_holder;

  Section(args, "Cluster demo: admission");
  std::vector<cluster::TenantHandle> handles;
  for (const TenantSpec& spec : kTenants) {
    Result<cluster::TenantHandle> h = cl.AddTenant(spec.tenant, spec.global);
    if (!h.ok()) {
      std::fprintf(stderr, "AddTenant(%u): %s\n", spec.tenant,
                   h.status().message().c_str());
      return 1;
    }
    handles.push_back(h.value());
  }
  // A reservation no node set could absorb: admission control must refuse
  // it up front (and say which node ran out of capacity).
  const Result<cluster::TenantHandle> refused =
      cl.AddTenant(99, GlobalReservation{4.0e6, 4.0e6});
  if (refused.ok()) {
    std::fprintf(stderr, "overbooked AddTenant was wrongly admitted\n");
    return 1;
  }
  std::printf("overbooked AddTenant(99) rejected: %s\n",
              refused.status().message().c_str());

  std::vector<std::unique_ptr<workload::ClusterTenantWorkload>> workloads;
  for (size_t i = 0; i < std::size(kTenants); ++i) {
    const TenantSpec& spec = kTenants[i];
    workload::KvWorkloadSpec w;
    w.get_fraction = spec.get_fraction;
    w.get_size = {4096.0, 1024.0};
    w.put_size = {1024.0, 256.0};
    w.live_bytes_target = (args.full ? 8ULL : 4ULL) * kMiB;
    w.zipf_theta = spec.zipf_theta;
    w.workers = 8;
    workloads.push_back(std::make_unique<workload::ClusterTenantWorkload>(
        loop, handles[i], w, 2000 + spec.tenant));
  }
  {
    sim::TaskGroup group(loop);
    group.Spawn(PreloadAll(&workloads));
    rig.Run();
  }

  const SimTime t0 = loop.Now();
  const SimTime t_warm = t0 + (args.full ? 20 : 10) * kSecond;
  const SimTime t_mid = t_warm + (args.full ? 10 : 5) * kSecond;
  const SimTime t_end = t_mid + (args.full ? 30 : 15) * kSecond;

  cl.Start();

  // Achieved global rates over the post-convergence window [t_warm, t_end).
  constexpr size_t kN = std::size(kTenants);
  double gets0[kN]{}, puts0[kN]{}, gets1[kN]{}, puts1[kN]{};
  auto snap = [&](double* g, double* p) {
    for (size_t i = 0; i < kN; ++i) {
      g[i] = cl.GlobalNormalizedTotal(kTenants[i].tenant, AppRequest::kGet);
      p[i] = cl.GlobalNormalizedTotal(kTenants[i].tenant, AppRequest::kPut);
    }
  };
  // Mid-run tracker reads need quiesced node loops (barrier hooks).
  rig.AtTime(t_warm, [&] { snap(gets0, puts0); });
  rig.AtTime(t_end, [&] { snap(gets1, puts1); });

  // Mid-run shard migration under live traffic: move the skewed tenant's
  // slot 0 one node over. Gated requests suspend, nothing is lost.
  const int mig_slot = 0;
  const int mig_from = cl.shard_map().HomeOf(kTenants[0].tenant, mig_slot);
  const int mig_to = (mig_from + 1) % cl.num_nodes();
  Status mig_status = Status::Internal("migration never ran");
  loop.ScheduleAt(t_mid, [&] {
    sim::Detach(RunExplicitMigration(&cl, kTenants[0].tenant, mig_slot,
                                     mig_to, &mig_status));
  });

  {
    sim::TaskGroup group(loop);
    for (auto& wl : workloads) {
      wl->Start(group, t_end);
    }
    rig.RunUntil(t_end + kSecond);
    cl.Stop();
    rig.Run();
  }

  Section(args, "Cluster demo: global reservations");
  metrics::Table table({"tenant", "GET_res/s", "GET_ach/s", "PUT_res/s",
                        "PUT_ach/s", "met"});
  const double secs = ToSeconds(t_end - t_warm);
  bool all_met = true;
  for (size_t i = 0; i < kN; ++i) {
    const double get_rate = (gets1[i] - gets0[i]) / secs;
    const double put_rate = (puts1[i] - puts0[i]) / secs;
    const bool met = get_rate >= kTenants[i].global.get_rps() &&
                     put_rate >= kTenants[i].global.put_rps();
    all_met = all_met && met;
    table.AddRow({std::to_string(kTenants[i].tenant),
                  metrics::FormatDouble(kTenants[i].global.get_rps(), 0),
                  metrics::FormatDouble(get_rate, 0),
                  metrics::FormatDouble(kTenants[i].global.put_rps(), 0),
                  metrics::FormatDouble(put_rate, 0), met ? "yes" : "NO"});
  }
  Emit(args, table);

  Section(args, "Cluster demo: rebalancing");
  const auto& prov = cl.provisioner();
  std::printf("splits applied: %llu, migrations started: %llu\n",
              static_cast<unsigned long long>(prov.splits_applied()),
              static_cast<unsigned long long>(prov.migrations_started()));
  if (!mig_status.ok()) {
    std::fprintf(stderr, "explicit migration failed: %s\n",
                 mig_status.message().c_str());
    return 1;
  }
  uint64_t keys_moved = 0;
  for (const auto& rec : cl.rebalance_log().records()) {
    if (rec.kind == obs::RebalanceRecord::Kind::kMigration &&
        rec.tenant == kTenants[0].tenant && rec.slot == mig_slot) {
      keys_moved = rec.keys_moved;
    }
  }
  std::printf("migrated tenant %u slot %d: node %d -> node %d (%llu keys)\n",
              kTenants[0].tenant, mig_slot, mig_from, mig_to,
              static_cast<unsigned long long>(keys_moved));

  // No key loss: every stable object of the migrated slot reads back with
  // the exact preloaded contents from its new home.
  uint64_t checked = 0;
  uint64_t lost = 0;
  {
    sim::TaskGroup group(loop);
    group.Spawn(VerifySlot(workloads[0].get(), &cl.shard_map(), mig_slot,
                           &checked, &lost));
    rig.Run();
  }
  std::printf("migration verification: %llu stable keys checked, %llu lost\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(lost));

  Section(args, "Cluster demo: request batching");
  uint64_t wal_appends = 0, wal_batches = 0, coalesced = 0;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    coalesced += cl.node(n).coalesced_gets();
    for (const TenantId t : cl.node(n).tenants()) {
      const lsm::LsmStats ls = cl.node(n).partition(t)->stats();
      wal_appends += ls.wal_appends;
      wal_batches += ls.wal_batches;
    }
  }
  std::printf(
      "WAL records %llu in %llu device appends (%.2f rec/append), "
      "coalesced GETs %llu, MultiGet slot groups %llu\n",
      static_cast<unsigned long long>(wal_appends),
      static_cast<unsigned long long>(wal_batches),
      wal_batches > 0 ? static_cast<double>(wal_appends) / wal_batches : 0.0,
      static_cast<unsigned long long>(coalesced),
      static_cast<unsigned long long>(cl.multiget_groups()));

  AddStatsSection(args, "cluster_snapshot",
                  cluster::ClusterStatsToJson(cl.Snapshot()));

  if (lost > 0 || checked == 0) {
    std::fprintf(stderr, "FAIL: migration lost keys\n");
    return 1;
  }
  if (!all_met) {
    std::fprintf(stderr, "FAIL: some tenant missed its global reservation\n");
    return 1;
  }
  std::printf(
      "cluster contract held: reservations met globally, overbooked admission "
      "refused, migration lossless.\n");
  return 0;
}

}  // namespace
}  // namespace libra::bench

int main(int argc, char** argv) {
  const libra::bench::BenchArgs args =
      libra::bench::ParseCommonFlags(argc, argv);
  return libra::bench::RunDemo(args);
}
