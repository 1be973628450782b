// Crash/recovery demo: the replicated cluster's failure contract end to end.
//
// --nodes storage nodes (default 4) at replication factor 2, three tenants
// with global reservations, client-side retry with a per-request deadline.
// A seeded FaultInjector crashes one node mid-run and restarts it a few
// virtual seconds later; the restarted node replays its WALs and catches up
// via the VOP-priced re-replication stream. The demo then checks the
// contract the failure machinery makes:
//   1. zero acked-write loss: every PUT that returned Ok — including those
//      issued while the victim was down — reads back with its exact value,
//      and every stable preloaded object survives;
//   2. surviving tenants see no new SlaMonitor violations on the surviving
//      nodes while re-replication runs;
//   3. the victim's recovery work is visible in attribution: WAL replay
//      counters and InternalOp::kReplicate VOPs are nonzero.
// Everything (workload, fault schedule, placement) derives from --seed, and
// the run is one deterministic virtual-time simulation, so two runs with
// the same seed emit byte-identical output — for any --sim-threads value at
// a fixed --rpc-latency-us — the property the CI fault smoke job diffs for.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/kv_bench_common.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fault_injector.h"
#include "src/cluster/global_provisioner.h"
#include "src/metrics/table.h"
#include "src/sim/sync.h"
#include "src/workload/cluster_workload.h"

namespace libra::bench {
namespace {

using cluster::Cluster;
using cluster::GlobalReservation;
using iosched::AppRequest;
using iosched::TenantId;

constexpr uint64_t kMarkerValueBytes = 512;

struct TenantSpec {
  TenantId tenant;
  GlobalReservation global;  // normalized (1KB) requests/s, cluster-wide
  double get_fraction;
};

constexpr TenantSpec kTenants[] = {
    {1, {600.0, 200.0}, 0.7},
    {2, {400.0, 150.0}, 0.5},
    {3, {300.0, 250.0}, 0.3},
};

// A PUT issued every `period`, spanning the crash and the recovery; the log
// records which writes were acked so the readback can prove none was lost.
struct MarkerWrite {
  std::string key;
  bool acked = false;
};

sim::Task<void> PreloadAll(
    std::vector<std::unique_ptr<workload::ClusterTenantWorkload>>* workloads) {
  for (auto& wl : *workloads) {
    co_await wl->Preload();
  }
}

sim::Task<void> WriteMarkers(sim::EventLoop* loop, cluster::TenantHandle handle,
                             SimTime start, SimTime end, SimDuration period,
                             std::vector<MarkerWrite>* log) {
  co_await sim::SleepUntil(*loop, start);
  int i = 0;
  while (loop->Now() < end) {
    MarkerWrite m;
    m.key = "fmark_" + std::to_string(i++);
    const Status s =
        co_await handle.Put(m.key, workload::MakeValue(m.key, kMarkerValueBytes));
    m.acked = s.ok();
    log->push_back(std::move(m));
    co_await sim::SleepFor(*loop, period);
  }
}

sim::Task<void> VerifyMarkers(cluster::TenantHandle handle,
                              const std::vector<MarkerWrite>* log,
                              uint64_t* acked, uint64_t* lost) {
  for (const MarkerWrite& m : *log) {
    if (!m.acked) {
      continue;
    }
    ++*acked;
    const Result<std::string> r = co_await handle.Get(m.key);
    if (!r.ok() || r.value() != workload::MakeValue(m.key, kMarkerValueBytes)) {
      ++*lost;
    }
  }
}

// Re-reads every stable (GET-range) object of the tenant and compares it to
// the value the preload provably wrote and the cluster acked.
sim::Task<void> VerifyStableObjects(workload::ClusterTenantWorkload* wl,
                                    uint64_t* checked, uint64_t* lost) {
  for (uint64_t i = 0; i < wl->get_keys(); ++i) {
    const std::string key = wl->GetKey(i);
    const Result<std::string> r = co_await wl->handle().Get(key);
    ++*checked;
    if (!r.ok() ||
        r.value() != workload::MakeValue(key, wl->GetObjectSize(i))) {
      ++*lost;
    }
  }
}

uint64_t ParseSeedFlag(int argc, char** argv, uint64_t def) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      return static_cast<uint64_t>(
          ParseIntFlag("--seed", argv[i] + 7, 0, LLONG_MAX));
    }
  }
  return def;
}

int RunDemo(const BenchArgs& args, uint64_t seed) {
  SimRig rig = MakeSimRig(args, args.nodes);
  sim::EventLoop& loop = rig.client();
  cluster::ClusterOptions copt;
  copt.num_nodes = args.nodes;
  copt.node_options = PrototypeNodeOptions();
  copt.replication_factor = 2;
  copt.retry.max_retries = 16;
  copt.retry.initial_backoff = 1 * kMillisecond;
  copt.retry.backoff_multiplier = 2.0;
  copt.retry.deadline = 2 * kSecond;
  std::unique_ptr<Cluster> cl_holder = MakeCluster(rig, copt);
  Cluster& cl = *cl_holder;

  cluster::FaultInjectorOptions fopt;
  fopt.seed = seed;
  cluster::FaultInjector injector(loop, cl, fopt);

  const int victim = static_cast<int>(seed % static_cast<uint64_t>(cl.num_nodes()));

  Section(args, "Failure demo: setup");
  std::printf("nodes %d, RF %d, seed %llu, victim node %d\n", cl.num_nodes(),
              copt.replication_factor, static_cast<unsigned long long>(seed),
              victim);

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

  std::vector<std::unique_ptr<workload::ClusterTenantWorkload>> workloads;
  for (size_t i = 0; i < std::size(kTenants); ++i) {
    const TenantSpec& spec = kTenants[i];
    workload::KvWorkloadSpec w;
    w.get_fraction = spec.get_fraction;
    w.get_size = {4096.0, 1024.0};
    w.put_size = {1024.0, 256.0};
    w.live_bytes_target = (args.full ? 8ULL : 4ULL) * kMiB;
    w.workers = 8;
    workloads.push_back(std::make_unique<workload::ClusterTenantWorkload>(
        loop, handles[i], w, 3000 + spec.tenant + seed * 7919));
  }
  {
    sim::TaskGroup group(loop);
    group.Spawn(PreloadAll(&workloads));
    rig.Run();
  }

  const SimDuration step = (args.full ? 2 : 1) * kSecond;
  const SimTime t0 = loop.Now();
  const SimTime t_warm = t0 + 4 * step;
  const SimTime t_crash = t_warm + 2 * step;
  const SimTime t_restart = t_crash + 4 * step;
  const SimTime t_end = t_restart + 6 * step;

  injector.ScheduleCrash(victim, t_crash);
  injector.ScheduleRestart(victim, t_restart);

  cl.Start();

  // Achieved global rates over [t_warm, t_end) — spanning the outage.
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

  // SlaMonitor baseline on the surviving nodes at the instant recovery
  // starts: any violation counted after this is a violation *during
  // re-replication*, the window the contract is about.
  std::map<std::pair<int, TenantId>, uint64_t> sla_base;
  rig.AtTime(t_restart, [&] {
    for (int n = 0; n < cl.num_nodes(); ++n) {
      if (n == victim) {
        continue;
      }
      for (const TenantId t : cl.node(n).tenants()) {
        const obs::SlaMonitor::TenantSla* s = cl.node(n).policy().sla().Of(t);
        sla_base[{n, t}] = s != nullptr ? s->violations : 0;
      }
    }
  });

  std::vector<MarkerWrite> markers;
  {
    sim::TaskGroup group(loop);
    for (auto& wl : workloads) {
      wl->Start(group, t_end);
    }
    group.Spawn(WriteMarkers(&loop, handles[0], t_warm, t_end - step,
                             100 * kMillisecond, &markers));
    rig.RunUntil(t_end + kSecond);
    cl.Stop();
    rig.Run();
  }

  Section(args, "Failure demo: workload through the outage");
  metrics::Table table({"tenant", "GET_res/s", "GET_ach/s", "PUT_res/s",
                        "PUT_ach/s", "put_err", "unavail", "deadline"});
  const double secs = ToSeconds(t_end - t_warm);
  for (size_t i = 0; i < kN; ++i) {
    table.AddRow({std::to_string(kTenants[i].tenant),
                  metrics::FormatDouble(kTenants[i].global.get_rps(), 0),
                  metrics::FormatDouble((gets1[i] - gets0[i]) / secs, 0),
                  metrics::FormatDouble(kTenants[i].global.put_rps(), 0),
                  metrics::FormatDouble((puts1[i] - puts0[i]) / secs, 0),
                  std::to_string(workloads[i]->put_errors()),
                  std::to_string(workloads[i]->unavailable_errors()),
                  std::to_string(workloads[i]->deadline_errors())});
  }
  Emit(args, table);

  Section(args, "Failure demo: acked-write durability");
  uint64_t marker_acked = 0, marker_lost = 0;
  uint64_t stable_checked = 0, stable_lost = 0;
  {
    sim::TaskGroup group(loop);
    group.Spawn(VerifyMarkers(handles[0], &markers, &marker_acked,
                              &marker_lost));
    for (auto& wl : workloads) {
      group.Spawn(VerifyStableObjects(wl.get(), &stable_checked, &stable_lost));
    }
    rig.Run();
  }
  std::printf(
      "markers: %llu issued, %llu acked, %llu lost; stable objects: %llu "
      "checked, %llu lost\n",
      static_cast<unsigned long long>(markers.size()),
      static_cast<unsigned long long>(marker_acked),
      static_cast<unsigned long long>(marker_lost),
      static_cast<unsigned long long>(stable_checked),
      static_cast<unsigned long long>(stable_lost));

  Section(args, "Failure demo: victim recovery");
  const cluster::ClusterStats stats = cl.Snapshot();
  const kv::NodeStats& vs = stats.nodes[victim];
  std::printf(
      "crashes %llu, restarts %llu, WAL files replayed %llu, replay records "
      "%llu (%llu bytes)\n",
      static_cast<unsigned long long>(vs.recovery.crashes),
      static_cast<unsigned long long>(vs.recovery.restarts),
      static_cast<unsigned long long>(vs.recovery.wal_files_replayed),
      static_cast<unsigned long long>(vs.recovery.replay_records),
      static_cast<unsigned long long>(vs.recovery.replay_bytes));
  std::printf(
      "catch-up: %llu keys (%llu bytes) copied in, %d slots still lagging, "
      "re-replication VOPs %s\n",
      static_cast<unsigned long long>(vs.replication.catchup_keys),
      static_cast<unsigned long long>(vs.replication.catchup_bytes),
      vs.replication.catchup_lag_slots,
      metrics::FormatDouble(vs.recovery.rereplication_vops, 1).c_str());
  // Recovery priced in the common currency: the victim's per-tenant
  // InternalOp::kReplicate VOPs, straight from the tracker.
  for (const TenantSpec& spec : kTenants) {
    double repl_vops = 0.0;
    for (const ssd::IoType type : {ssd::IoType::kRead, ssd::IoType::kWrite}) {
      repl_vops += cl.node(victim).tracker().VopsBy(
          spec.tenant, AppRequest::kPut, iosched::InternalOp::kReplicate, type);
    }
    std::printf("tenant %u REPL VOPs on victim: %s\n", spec.tenant,
                metrics::FormatDouble(repl_vops, 1).c_str());
  }

  Section(args, "Failure demo: survivor SLAs during re-replication");
  uint64_t survivor_violations = 0;
  for (const auto& [node_tenant, base] : sla_base) {
    const auto& [n, t] = node_tenant;
    const obs::SlaMonitor::TenantSla* s =
        cl.node(n).policy().sla().Of(t);
    const uint64_t now = s != nullptr ? s->violations : 0;
    if (now > base) {
      survivor_violations += now - base;
      std::printf("node %d tenant %u: +%llu violations\n", n, t,
                  static_cast<unsigned long long>(now - base));
    }
  }
  std::printf("new violations on surviving nodes: %llu\n",
              static_cast<unsigned long long>(survivor_violations));

  AddStatsSection(args, "cluster_snapshot", cluster::ClusterStatsToJson(stats));

  bool ok = true;
  if (marker_lost > 0 || stable_lost > 0 || marker_acked == 0 ||
      stable_checked == 0) {
    std::fprintf(stderr, "FAIL: acked writes were lost\n");
    ok = false;
  }
  if (injector.crashes_injected() != 1 || injector.restarts_injected() != 1 ||
      !cl.NodeAlive(victim) || cl.NodeSyncing(victim)) {
    std::fprintf(stderr, "FAIL: fault schedule did not run to completion\n");
    ok = false;
  }
  if (vs.recovery.crashes != 1 || vs.recovery.restarts != 1 ||
      vs.recovery.rereplication_vops <= 0.0 ||
      vs.replication.catchup_keys == 0 || vs.replication.catchup_lag_slots != 0) {
    std::fprintf(stderr, "FAIL: recovery left no attribution evidence\n");
    ok = false;
  }
  if (survivor_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: surviving tenants violated SLAs during catch-up\n");
    ok = false;
  }
  if (!ok) {
    return 1;
  }
  std::printf(
      "failure contract held: no acked write lost, survivors kept their "
      "SLAs, recovery VOPs attributed.\n");
  return 0;
}

}  // namespace
}  // namespace libra::bench

int main(int argc, char** argv) {
  const libra::bench::BenchArgs args =
      libra::bench::ParseCommonFlags(argc, argv, {"--seed="});
  const uint64_t seed = libra::bench::ParseSeedFlag(argc, argv, 0xFA17ED);
  return libra::bench::RunDemo(args, seed);
}
