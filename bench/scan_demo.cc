// Scan demo: the SCAN request class end to end, with the per-tenant
// compaction policy as a VAT ablation.
//
// A 2x2 tenant grid on one cluster — {leveled, size-tiered} compaction x
// {point-only, scan-mixed} workload — all four with identical global
// per-class reservations (GET/PUT/SCAN rps). Range scans fan out across
// every slot-owning node and merge at the client; their table reads are
// charged to the SCAN attribution column. The demo then reads back what
// Libra's accounting says the policy choice did:
//   1. the measured per-class cost profiles q̂_t^{a,i} (VOPs per normalized
//      request of class a attributed to internal op i), aggregated across
//      nodes from each node tracker's attribution matrix,
//   2. the admitted reservation mass (required/granted VOPs summed over the
//      per-node audit records) — SCAN reservations are priced and admitted
//      like any other class,
//   3. VOP conservation: on every node, each tenant's attribution cells
//      sum to the scheduler tracker's admitted VOP total within 1e-12
//      relative, scans included.
// The ablation contract (exit 1 on violation): scan-mixed tenants carry a
// nonzero SCAN column while point-only tenants do not, every tenant's churn
// actually compacted under its declared policy, and the policy measurably
// shifts the indirect (compaction) component of q̂ between the two
// scan-mixed tenants. One deterministic virtual-time simulation: output is
// byte-identical for any --sim-threads at a fixed --rpc-latency-us.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/kv_bench_common.h"
#include "src/cluster/cluster.h"
#include "src/metrics/table.h"
#include "src/obs/conformance.h"
#include "src/workload/cluster_workload.h"

namespace libra::bench {
namespace {

using cluster::Cluster;
using cluster::GlobalReservation;
using iosched::AppRequest;
using iosched::TenantId;

struct CellSpec {
  TenantId tenant;
  lsm::CompactionPolicy policy;
  double scan_fraction;  // 0 = point-only cell
  const char* policy_name;
  const char* mix_name;
};

constexpr CellSpec kCells[] = {
    {1, lsm::CompactionPolicy::kLeveled, 0.0, "leveled", "point"},
    {2, lsm::CompactionPolicy::kLeveled, 0.25, "leveled", "scan"},
    {3, lsm::CompactionPolicy::kSizeTiered, 0.0, "tiered", "point"},
    {4, lsm::CompactionPolicy::kSizeTiered, 0.25, "tiered", "scan"},
};

// Every cell gets the same per-class reservation, so any shift in required
// VOP mass is purely the measured profiles moving.
constexpr GlobalReservation kGlobal{800.0, 400.0, 200.0};

sim::Task<void> PreloadAll(
    std::vector<std::unique_ptr<workload::ClusterTenantWorkload>>* workloads) {
  for (auto& wl : *workloads) {
    co_await wl->Preload();
  }
}

// Cluster-wide measured profile for one tenant: attribution matrices summed
// across nodes in node order (deterministic FP), then Q = vops / requests.
struct MeasuredProfile {
  double vops[obs::kAttrApps][obs::kAttrInternal] = {};
  double norm_requests[obs::kAttrApps] = {};

  double Q(int app, int internal) const {
    const double n = norm_requests[app];
    return n > 0.0 ? vops[app][internal] / n : 0.0;
  }
  double QTotal(int app) const {
    double q = 0.0;
    for (int i = 0; i < obs::kAttrInternal; ++i) {
      q += Q(app, i);
    }
    return q;
  }
};

int RunDemo(const BenchArgs& args) {
  SimRig rig = MakeSimRig(args, args.nodes);
  sim::EventLoop& loop = rig.client();
  cluster::ClusterOptions copt;
  copt.num_nodes = args.nodes;
  copt.node_options = PrototypeNodeOptions();
  copt.provisioner.interval = 1 * kSecond;
  // Small memtables/levels so the run's churn flushes and compacts under
  // both policies — the ablation is about the indirect profile.
  copt.node_options.lsm_options.write_buffer_bytes = 256 * kKiB;
  copt.node_options.lsm_options.max_bytes_level1 = 1 * kMiB;
  copt.node_options.lsm_options.wal_group_commit = true;
  // Span collection on: the stats output reports the collector's counters.
  copt.node_options.scheduler_options.span_capacity = 1 << 14;
  std::unique_ptr<Cluster> cl_holder = MakeCluster(rig, copt);
  Cluster& cl = *cl_holder;

  Section(args, "Scan demo: admission (per-class reservations)");
  std::vector<cluster::TenantHandle> handles;
  for (const CellSpec& cell : kCells) {
    Result<cluster::TenantHandle> h =
        cl.AddTenant(cell.tenant, kGlobal, cell.policy);
    if (!h.ok()) {
      std::fprintf(stderr, "AddTenant(%u): %s\n", cell.tenant,
                   h.status().message().c_str());
      return 1;
    }
    handles.push_back(h.value());
    std::printf("tenant %u admitted: %s compaction, %.0f/%.0f/%.0f "
                "GET/PUT/SCAN rps\n",
                cell.tenant, cell.policy_name, kGlobal.get_rps,
                kGlobal.put_rps, kGlobal.scan_rps);
  }
  // A malformed per-class reservation is rejected up front, naming the
  // offending class.
  GlobalReservation bad = kGlobal;
  bad.scan_rps = -1.0;
  const Result<cluster::TenantHandle> refused = cl.AddTenant(99, bad);
  if (refused.ok()) {
    std::fprintf(stderr, "negative scan_rps was wrongly admitted\n");
    return 1;
  }
  std::printf("malformed AddTenant(99) rejected: %s\n",
              refused.status().message().c_str());

  std::vector<std::unique_ptr<workload::ClusterTenantWorkload>> workloads;
  for (size_t i = 0; i < std::size(kCells); ++i) {
    const CellSpec& cell = kCells[i];
    workload::KvWorkloadSpec w;
    w.get_fraction = 0.5;
    w.scan_fraction = cell.scan_fraction;
    w.scan_span = 24;
    w.get_size = {4096.0, 1024.0};
    w.put_size = {1024.0, 256.0};
    w.live_bytes_target = (args.full ? 8ULL : 4ULL) * kMiB;
    w.workers = 8;
    workloads.push_back(std::make_unique<workload::ClusterTenantWorkload>(
        loop, handles[i], w, 3000 + cell.tenant));
  }
  {
    sim::TaskGroup group(loop);
    group.Spawn(PreloadAll(&workloads));
    rig.Run();
  }

  const SimTime t0 = loop.Now();
  const SimTime t_warm = t0 + (args.full ? 20 : 10) * kSecond;
  const SimTime t_end = t_warm + (args.full ? 30 : 15) * kSecond;

  cl.Start();

  // Achieved normalized request rates over [t_warm, t_end).
  constexpr size_t kN = std::size(kCells);
  double gets0[kN]{}, scans0[kN]{}, gets1[kN]{}, scans1[kN]{};
  auto snap = [&](double* g, double* s) {
    for (size_t i = 0; i < kN; ++i) {
      g[i] = cl.GlobalNormalizedTotal(kCells[i].tenant, AppRequest::kGet);
      s[i] = cl.GlobalNormalizedTotal(kCells[i].tenant, AppRequest::kScan);
    }
  };
  rig.AtTime(t_warm, [&] { snap(gets0, scans0); });
  rig.AtTime(t_end, [&] { snap(gets1, scans1); });

  {
    sim::TaskGroup group(loop);
    for (auto& wl : workloads) {
      wl->Start(group, t_end);
    }
    rig.RunUntil(t_end + kSecond);
    cl.Stop();
    rig.Run();
  }

  // --- cluster-wide measured profiles + VOP conservation ---
  MeasuredProfile profiles[kN];
  uint64_t conservation_cells = 0;
  uint64_t conservation_violations = 0;
  uint64_t compactions[kN]{};
  for (int n = 0; n < cl.num_nodes(); ++n) {
    for (size_t i = 0; i < kN; ++i) {
      const TenantId t = kCells[i].tenant;
      const std::optional<obs::AttributionMatrix> m =
          cl.node(n).tracker().Attribution(t);
      if (m) {
        ++conservation_cells;
        // The cells re-order the tracker's additions: equal to its admitted
        // VOP total up to rounding, scans included.
        const double vops = cl.node(n).tracker().Stats(t).vops;
        if (std::abs(m->CellSum() - vops) > kConservationRelTol * vops) {
          ++conservation_violations;
        }
        for (int a = 0; a < obs::kAttrApps; ++a) {
          profiles[i].norm_requests[a] += m->norm_requests[a];
          for (int io = 0; io < obs::kAttrInternal; ++io) {
            profiles[i].vops[a][io] += m->vops[a][io];
          }
        }
      }
      if (cl.node(n).partition(t) != nullptr) {
        compactions[i] += cl.node(n).partition(t)->stats().compactions;
      }
    }
  }

  // --- admitted reservation mass from the per-node audit records ---
  double required[kN]{}, granted[kN]{}, price_scan[kN]{}, price_n[kN]{};
  for (int n = 0; n < cl.num_nodes(); ++n) {
    const kv::NodeStats stats = cl.node(n).Snapshot();
    if (stats.audit.empty()) {
      continue;
    }
    const obs::AuditRecord& rec = stats.audit.back();
    for (const obs::AuditTenantEntry& e : rec.tenants) {
      for (size_t i = 0; i < kN; ++i) {
        if (e.tenant == kCells[i].tenant) {
          required[i] += e.required_vops;
          granted[i] += e.granted_vops;
          price_scan[i] += e.price[static_cast<int>(AppRequest::kScan)];
          price_n[i] += 1.0;
        }
      }
    }
  }

  Section(args, "Scan demo: VAT ablation (policy x mix)");
  constexpr int kGet = static_cast<int>(AppRequest::kGet);
  constexpr int kScan = static_cast<int>(AppRequest::kScan);
  constexpr int kCompact = static_cast<int>(iosched::InternalOp::kCompact);
  const double secs = ToSeconds(t_end - t_warm);
  metrics::Table table({"tenant", "policy", "mix", "q_get", "q_scan",
                        "q_put_compact", "price_scan", "req_vops",
                        "granted_vops", "scan_nreq/s"});
  for (size_t i = 0; i < kN; ++i) {
    const double scan_rate = (scans1[i] - scans0[i]) / secs;
    table.AddRow(
        {std::to_string(kCells[i].tenant), kCells[i].policy_name,
         kCells[i].mix_name,
         metrics::FormatDouble(profiles[i].QTotal(kGet), 3),
         metrics::FormatDouble(profiles[i].QTotal(kScan), 3),
         metrics::FormatDouble(
             profiles[i].Q(static_cast<int>(AppRequest::kPut), kCompact), 3),
         metrics::FormatDouble(
             price_n[i] > 0.0 ? price_scan[i] / price_n[i] : 0.0, 3),
         metrics::FormatDouble(required[i], 0),
         metrics::FormatDouble(granted[i], 0),
         metrics::FormatDouble(scan_rate, 0)});
  }
  Emit(args, table);

  Section(args, "Scan demo: conservation and contract");
  std::printf("attribution matrices checked: %llu, cell-sum violations "
              "(> %g relative to tracker VOPs): %llu\n",
              static_cast<unsigned long long>(conservation_cells),
              kConservationRelTol,
              static_cast<unsigned long long>(conservation_violations));
  for (size_t i = 0; i < kN; ++i) {
    std::printf("tenant %u: %llu compactions (%s), %llu scans issued\n",
                kCells[i].tenant,
                static_cast<unsigned long long>(compactions[i]),
                kCells[i].policy_name,
                static_cast<unsigned long long>(workloads[i]->scans_done()));
  }

  AddStatsSection(args, "cluster_snapshot",
                  cluster::ClusterStatsToJson(cl.Snapshot()));

  bool failed = false;
  if (conservation_cells == 0 || conservation_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: attribution cells do not sum to tracker VOPs\n");
    failed = true;
  }
  for (size_t i = 0; i < kN; ++i) {
    const bool scan_cell = kCells[i].scan_fraction > 0.0;
    if (scan_cell &&
        (workloads[i]->scans_done() == 0 || profiles[i].QTotal(kScan) <= 0.0)) {
      std::fprintf(stderr, "FAIL: tenant %u ran no attributed scans\n",
                   kCells[i].tenant);
      failed = true;
    }
    if (!scan_cell && profiles[i].QTotal(kScan) != 0.0) {
      std::fprintf(stderr, "FAIL: point-only tenant %u has SCAN VOPs\n",
                   kCells[i].tenant);
      failed = true;
    }
    if (compactions[i] == 0) {
      std::fprintf(stderr, "FAIL: tenant %u never compacted\n",
                   kCells[i].tenant);
      failed = true;
    }
    if (workloads[i]->scan_errors() > 0) {
      std::fprintf(stderr, "FAIL: tenant %u had scan errors\n",
                   kCells[i].tenant);
      failed = true;
    }
  }
  // The policy must measurably shift the indirect profile between the two
  // scan-mixed cells (same reservation, same workload, different picker).
  const double q_lev = profiles[1].Q(static_cast<int>(AppRequest::kPut),
                                     kCompact);
  const double q_tier = profiles[3].Q(static_cast<int>(AppRequest::kPut),
                                      kCompact);
  std::printf("compaction q̂ (PUT class): leveled %.4f vs tiered %.4f\n",
              q_lev, q_tier);
  if (q_lev == q_tier) {
    std::fprintf(stderr,
                 "FAIL: compaction policy did not shift the measured q̂\n");
    failed = true;
  }
  if (failed) {
    return 1;
  }
  std::printf(
      "scan contract held: SCAN class attributed and conserved, per-class "
      "reservations admitted, compaction policy shifted the profile.\n");
  return 0;
}

}  // namespace
}  // namespace libra::bench

int main(int argc, char** argv) {
  const libra::bench::BenchArgs args =
      libra::bench::ParseCommonFlags(argc, argv);
  return libra::bench::RunDemo(args);
}
