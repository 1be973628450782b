// Batching demo: before/after view of the request-path batching layer.
//
// Two paired experiments, each run once with batching off (the paper's
// defaults) and once with it on:
//   1. WAL group commit — three tenants of closed-loop PUT writers on one
//      node. Reported per mode: WAL device IOPs per normalized PUT (the
//      paper's PUT profile is one synced WAL IOP per request; group commit
//      amortizes it), sustained normalized PUT/s at the capacity floor, and
//      simulated events per completed op (the simulator-cost win).
//   2. Read coalescing — a hot-key MultiGet workload on a small cluster.
//      Batching groups each MultiGet's same-slot keys through one routing
//      gate and collapses duplicate in-flight GETs into one LSM lookup
//      (singleflight); a bounded table cache replaces the grow-forever
//      resident index blocks.
// Both experiments are deterministic virtual-time simulations (the second
// on the cluster's MultiLoop engine), so output is identical for any --jobs
// or --sim-threads value.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/kv_bench_common.h"
#include "src/cluster/cluster.h"
#include "src/metrics/table.h"
#include "src/workload/workload.h"

namespace libra::bench {
namespace {

using iosched::AppRequest;
using iosched::InternalOp;
using iosched::TenantId;

constexpr TenantId kPutTenants[] = {1, 2, 3};

// --- experiment 1: WAL group commit under a PUT-heavy multi-writer load ---

struct PutRunResult {
  double puts = 0.0;            // normalized PUTs in the measure window
  double puts_per_sec = 0.0;    // sustained normalized PUT/s
  uint64_t wal_iops = 0;        // device WAL writes in the window
  double wal_iops_per_put = 0.0;
  uint64_t ops_done = 0;        // app requests completed (whole run)
  uint64_t events = 0;          // loop events dispatched (whole run)
  double events_per_op = 0.0;
  uint64_t batches = 0;         // leader-issued WAL device appends
  uint64_t batched_records = 0; // records that rode them
  uint64_t max_batch = 0;
};

PutRunResult RunPutHeavy(const BenchArgs& args, bool batching) {
  sim::EventLoop loop;
  kv::NodeOptions opt = PrototypeNodeOptions();
  if (batching) {
    opt.lsm_options.wal_group_commit = true;
  }
  kv::StorageNode node(loop, opt);
  for (TenantId t : kPutTenants) {
    (void)node.AddTenant(t, {100.0, 1500.0});
  }

  std::vector<std::unique_ptr<workload::KvTenantWorkload>> wls;
  std::vector<workload::KvTenantWorkload*> raw;
  for (TenantId t : kPutTenants) {
    workload::KvWorkloadSpec spec;
    spec.get_fraction = 0.0;  // pure writers: every request syncs the WAL
    spec.put_size = {1024.0, 0.0};
    spec.live_bytes_target = (args.full ? 8ULL : 4ULL) * kMiB;
    spec.workers = 16;
    wls.push_back(std::make_unique<workload::KvTenantWorkload>(
        loop, node, t, spec, 700 + t));
    raw.push_back(wls.back().get());
  }
  RunPreloads(loop, raw);

  const SimDuration warmup = 2 * kSecond;
  const SimDuration measure = (args.full ? 8 : 4) * kSecond;
  double puts0 = 0.0, puts1 = 0.0;
  uint64_t wal0 = 0, wal1 = 0;
  // WAL appends are the only direct (tenant, PUT, kNone) IO, so that
  // lifecycle class counts device WAL writes; under group commit a batched
  // append completes as one op attributed to its leader.
  const auto wal_ops = [&] {
    uint64_t ops = 0;
    for (TenantId t : kPutTenants) {
      if (const iosched::TenantLifecycleStats* lc = node.scheduler().lifecycle(t)) {
        if (const obs::IoClassStats* c =
                lc->of(AppRequest::kPut, InternalOp::kNone)) {
          ops += c->ops;
        }
      }
    }
    return ops;
  };
  const auto norm_puts = [&] {
    double s = 0.0;
    for (TenantId t : kPutTenants) {
      s += node.tracker().NormalizedRequestsTotal(t, AppRequest::kPut);
    }
    return s;
  };

  PutRunResult r;
  {
    sim::TaskGroup group(loop);
    const SimTime start = loop.Now();
    node.Start();
    for (auto& wl : wls) {
      wl->Start(group, start + warmup + measure);
    }
    loop.ScheduleAt(start + warmup, [&] {
      puts0 = norm_puts();
      wal0 = wal_ops();
    });
    loop.ScheduleAt(start + warmup + measure, [&] {
      puts1 = norm_puts();
      wal1 = wal_ops();
    });
    // The started policy keeps its timer pending forever: bound the run,
    // stop, then drain the in-flight work.
    r.events = loop.RunUntil(start + warmup + measure + kSecond);
    node.Stop();
    r.events += loop.Run();
  }

  r.puts = puts1 - puts0;
  r.puts_per_sec = r.puts / ToSeconds(measure);
  r.wal_iops = wal1 - wal0;
  r.wal_iops_per_put = r.puts > 0.0 ? r.wal_iops / r.puts : 0.0;
  for (auto& wl : wls) {
    r.ops_done += wl->puts_done() + wl->gets_done();
  }
  r.events_per_op =
      r.ops_done > 0 ? static_cast<double>(r.events) / r.ops_done : 0.0;
  for (TenantId t : kPutTenants) {
    const lsm::LsmStats s = node.partition(t)->stats();
    r.batches += s.wal_batches;
    r.batched_records += s.wal_batched_records;
    r.max_batch = std::max(r.max_batch, s.wal_max_batch_records);
  }
  return r;
}

// --- experiment 2: hot-key MultiGet on a small cluster ---

struct GetRunResult {
  uint64_t keys_issued = 0;
  uint64_t errors = 0;
  uint64_t groups = 0;          // slot groups routed (batched mode)
  uint64_t coalesced = 0;       // GETs that rode another's lookup
  uint64_t events = 0;
  double events_per_key = 0.0;
  uint64_t cache_hits = 0;      // bounded table cache (batched mode)
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
};

std::string HotKey(uint64_t i) { return "hot:" + std::to_string(i); }

// 8KB objects so the population overflows the 4MB write buffers and the
// hot keys are served from SSTables — memtable hits would need no IO and
// leave nothing for singleflight or the table cache to do.
sim::Task<void> PreloadHotKeys(cluster::TenantHandle h, int n,
                               uint64_t* errors) {
  for (int i = 0; i < n; ++i) {
    const std::string key = HotKey(i);
    const Status s = co_await h.Put(key, workload::MakeValue(key, 8192));
    if (!s.ok()) {
      ++*errors;
    }
  }
}

// One closed-loop reader: `rounds` MultiGets of `fan` keys drawn Zipf-hot
// from [0, nkeys) — duplicates within and across concurrent rounds are what
// singleflight collapses.
sim::Task<void> HotReader(cluster::TenantHandle h, int rounds, int fan,
                          int nkeys, uint64_t seed, uint64_t* keys_issued,
                          uint64_t* errors) {
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::string> keys;
    keys.reserve(fan);
    for (int k = 0; k < fan; ++k) {
      // Square the uniform sample: a cheap deterministic hot-spot skew.
      const double u = rng.NextDouble();
      keys.push_back(HotKey(static_cast<uint64_t>(u * u * nkeys)));
    }
    *keys_issued += keys.size();
    const std::vector<Result<std::string>> out = co_await h.MultiGet(keys);
    for (const Result<std::string>& r : out) {
      if (!r.ok()) {
        ++*errors;
      }
    }
  }
}

GetRunResult RunHotReads(const BenchArgs& args, bool batching) {
  cluster::ClusterOptions copt;
  copt.num_nodes = 2;
  copt.node_options = PrototypeNodeOptions();
  if (batching) {
    copt.batch_multiget = true;
    copt.node_options.enable_read_coalescing = true;
    copt.node_options.lsm_options.table_cache_bytes = 64 * kKiB;
  }
  SimRig rig = MakeSimRig(args, copt.num_nodes);
  sim::EventLoop& loop = rig.client();
  std::unique_ptr<cluster::Cluster> cl_holder = MakeCluster(rig, copt);
  cluster::Cluster& cl = *cl_holder;
  const Result<cluster::TenantHandle> admitted =
      cl.AddTenant(7, cluster::GlobalReservation{3000.0, 500.0});
  GetRunResult r;
  if (!admitted.ok()) {
    std::fprintf(stderr, "AddTenant: %s\n",
                 admitted.status().message().c_str());
    r.errors = 1;
    return r;
  }
  const cluster::TenantHandle handle = admitted.value();

  const int nkeys = 2048;
  {
    sim::TaskGroup group(loop);
    group.Spawn(PreloadHotKeys(handle, nkeys, &r.errors));
    rig.Run();
  }

  // The readers run a fixed number of rounds (no deadline), so the cluster
  // policies stay un-started: allocations come from the admission-time even
  // split and the loop drains when the last round lands.
  const int readers = 16;
  const int rounds = args.full ? 64 : 32;
  const int fan = 8;
  {
    sim::TaskGroup group(loop);
    for (int w = 0; w < readers; ++w) {
      group.Spawn(HotReader(handle, rounds, fan, nkeys, 900 + w,
                            &r.keys_issued, &r.errors));
    }
    r.events = rig.Run();
  }

  r.groups = cl.multiget_groups();
  for (int n = 0; n < cl.num_nodes(); ++n) {
    r.coalesced += cl.node(n).coalesced_gets();
    for (TenantId t : cl.node(n).tenants()) {
      const lsm::LsmStats s = cl.node(n).partition(t)->stats();
      r.cache_hits += s.table_cache_hits;
      r.cache_misses += s.table_cache_misses;
      r.cache_evictions += s.table_cache_evictions;
    }
  }
  r.events_per_key = r.keys_issued > 0
                         ? static_cast<double>(r.events) / r.keys_issued
                         : 0.0;
  return r;
}

int RunDemo(const BenchArgs& args) {
  Section(args, "WAL group commit: PUT-heavy multi-writer (3 tenants x 16)");
  const PutRunResult off = RunPutHeavy(args, /*batching=*/false);
  const PutRunResult on = RunPutHeavy(args, /*batching=*/true);
  {
    metrics::Table t({"mode", "PUT/s", "WAL_IOPs", "WAL_IOPs/PUT",
                      "events/op", "batches", "rec/batch_max"});
    t.AddRow({"off", metrics::FormatDouble(off.puts_per_sec, 0),
              std::to_string(off.wal_iops),
              metrics::FormatDouble(off.wal_iops_per_put, 3),
              metrics::FormatDouble(off.events_per_op, 1),
              std::to_string(off.batches), std::to_string(off.max_batch)});
    t.AddRow({"on", metrics::FormatDouble(on.puts_per_sec, 0),
              std::to_string(on.wal_iops),
              metrics::FormatDouble(on.wal_iops_per_put, 3),
              metrics::FormatDouble(on.events_per_op, 1),
              std::to_string(on.batches), std::to_string(on.max_batch)});
    Emit(args, t);
  }
  const double iop_reduction =
      on.wal_iops_per_put > 0.0 ? off.wal_iops_per_put / on.wal_iops_per_put
                                : 0.0;
  const double tput_gain =
      off.puts_per_sec > 0.0 ? on.puts_per_sec / off.puts_per_sec : 0.0;
  const double event_cut =
      off.events_per_op > 0.0
          ? 100.0 * (1.0 - on.events_per_op / off.events_per_op)
          : 0.0;
  std::printf(
      "group commit: %.2fx fewer WAL device IOPs per PUT, %.2fx throughput "
      "at the floor, %.0f%% fewer events per op\n",
      iop_reduction, tput_gain, event_cut);

  Section(args, "Read coalescing: hot-key MultiGet (2 nodes, 16 readers)");
  const GetRunResult roff = RunHotReads(args, /*batching=*/false);
  const GetRunResult ron = RunHotReads(args, /*batching=*/true);
  {
    metrics::Table t({"mode", "keys", "slot_groups", "coalesced", "events/key",
                      "tcache_hit", "tcache_miss", "tcache_evict"});
    t.AddRow({"off", std::to_string(roff.keys_issued),
              std::to_string(roff.groups), std::to_string(roff.coalesced),
              metrics::FormatDouble(roff.events_per_key, 1),
              std::to_string(roff.cache_hits),
              std::to_string(roff.cache_misses),
              std::to_string(roff.cache_evictions)});
    t.AddRow({"on", std::to_string(ron.keys_issued),
              std::to_string(ron.groups), std::to_string(ron.coalesced),
              metrics::FormatDouble(ron.events_per_key, 1),
              std::to_string(ron.cache_hits), std::to_string(ron.cache_misses),
              std::to_string(ron.cache_evictions)});
    Emit(args, t);
  }
  const double hit_rate =
      ron.cache_hits + ron.cache_misses > 0
          ? 100.0 * ron.cache_hits / (ron.cache_hits + ron.cache_misses)
          : 0.0;
  std::printf(
      "coalescing: %llu duplicate GETs rode a shared lookup, %llu MultiGet "
      "slot groups, events per key %.1f -> %.1f, bounded table cache %.0f%% "
      "hit rate\n",
      static_cast<unsigned long long>(ron.coalesced),
      static_cast<unsigned long long>(ron.groups), roff.events_per_key,
      ron.events_per_key, hit_rate);

  if (off.puts <= 0.0 || on.puts <= 0.0 || roff.errors + ron.errors > 0) {
    std::fprintf(stderr, "FAIL: a run made no progress or returned errors\n");
    return 1;
  }
  if (iop_reduction < 1.5) {
    std::fprintf(stderr,
                 "FAIL: WAL IOP reduction %.2fx below the 1.5x target\n",
                 iop_reduction);
    return 1;
  }
  std::printf("batching contract held: >= 1.5x fewer WAL IOPs per PUT with "
              "identical results.\n");
  return 0;
}

}  // namespace
}  // namespace libra::bench

int main(int argc, char** argv) {
  const libra::bench::BenchArgs args =
      libra::bench::ParseCommonFlags(argc, argv);
  return libra::bench::RunDemo(args);
}
