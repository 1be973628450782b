// Mega-scale cluster demo: the parallel epoch engine at full width.
//
// --nodes storage nodes (default 64) and --tenants tenants (default 10000)
// behind the routed Cluster API. Admission control is disabled (its
// all-pairs feasibility check is quadratic in tenants and is exercised by
// the smaller demos); every tenant gets a small global reservation and
// issues --rounds deterministic PUT+readback pairs through the client
// seam, staggered in virtual time. The demo checks that every op succeeded
// and every value read back exactly, then prints aggregate totals and
// engine statistics (epochs, cross-loop messages).
//
// Output is byte-identical for any --sim-threads value at a fixed
// --rpc-latency-us — the CI mega-smoke job runs the scaled-down
// 8-node/1000-tenant config twice and diffs stdout. Wall-clock time and
// peak RSS are printed to stderr so stdout stays diffable.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/kv_bench_common.h"
#include "src/cluster/cluster.h"
#include "src/metrics/table.h"
#include "src/workload/cluster_workload.h"

namespace libra::bench {
namespace {

using cluster::Cluster;
using iosched::AppRequest;
using iosched::TenantId;

struct MegaFlags {
  int tenants = 10000;
  int rounds = 3;
};

struct Totals {
  uint64_t puts_ok = 0;
  uint64_t puts_err = 0;
  uint64_t gets_ok = 0;
  uint64_t gets_err = 0;
};

sim::Task<void> TenantDriver(sim::EventLoop* loop, cluster::TenantHandle h,
                             int tenant, int rounds, Totals* totals) {
  // Stagger the herd across ~10ms of virtual time (coprime modulus keeps
  // the stagger spread even at power-of-two tenant counts).
  co_await sim::SleepFor(*loop, (tenant % 997 + 1) * 10 * kMicrosecond);
  for (int r = 0; r < rounds; ++r) {
    const std::string key =
        "m" + std::to_string(tenant) + "_" + std::to_string(r);
    const std::string value = workload::MakeValue(key, 256);
    const Status s = co_await h.Put(key, value);
    if (s.ok()) {
      ++totals->puts_ok;
    } else {
      ++totals->puts_err;
    }
    const Result<std::string> g = co_await h.Get(key);
    if (g.ok() && g.value() == value) {
      ++totals->gets_ok;
    } else {
      ++totals->gets_err;
    }
    co_await sim::SleepFor(*loop, 100 * kMillisecond);
  }
}

int RunDemo(const BenchArgs& args, const MegaFlags& mega) {
  const auto wall_start = std::chrono::steady_clock::now();
  SimRig rig = MakeSimRig(args, args.nodes);
  sim::EventLoop& loop = rig.client();

  cluster::ClusterOptions copt;
  copt.num_nodes = args.nodes;
  copt.node_options = PrototypeNodeOptions();
  copt.admission_enabled = false;  // quadratic in tenants; off at this scale
  copt.provisioner.interval = 1 * kSecond;
  std::unique_ptr<Cluster> cl_holder = MakeCluster(rig, copt);
  Cluster& cl = *cl_holder;

  Section(args, "Mega demo: setup");
  std::printf("nodes %d, tenants %d, rounds %d, engine parallel\n",
              cl.num_nodes(), mega.tenants, mega.rounds);

  std::vector<cluster::TenantHandle> handles;
  handles.reserve(static_cast<size_t>(mega.tenants));
  for (int t = 1; t <= mega.tenants; ++t) {
    Result<cluster::TenantHandle> h = cl.AddTenant(
        static_cast<TenantId>(t), cluster::GlobalReservation{20.0, 10.0});
    if (!h.ok()) {
      std::fprintf(stderr, "AddTenant(%d): %s\n", t,
                   h.status().message().c_str());
      return 1;
    }
    handles.push_back(h.value());
  }
  std::printf("%zu tenants admitted\n", handles.size());

  cl.Start();
  // Drivers finish around stagger + rounds * 100ms of virtual time; the
  // bounded run stops the periodic timers (provisioner, node policies)
  // shortly after, and the final Run() drains any stragglers.
  const SimTime t_end = loop.Now() +
                        static_cast<SimTime>(mega.rounds) * 100 * kMillisecond +
                        600 * kMillisecond;
  Totals totals;
  {
    sim::TaskGroup group(loop);
    for (int t = 1; t <= mega.tenants; ++t) {
      group.Spawn(TenantDriver(&loop, handles[static_cast<size_t>(t - 1)], t,
                               mega.rounds, &totals));
    }
    rig.RunUntil(t_end);
    cl.Stop();
    rig.Run();
  }

  Section(args, "Mega demo: totals");
  double norm_gets = 0.0;
  double norm_puts = 0.0;
  for (int t = 1; t <= mega.tenants; ++t) {
    norm_gets +=
        cl.GlobalNormalizedTotal(static_cast<TenantId>(t), AppRequest::kGet);
    norm_puts +=
        cl.GlobalNormalizedTotal(static_cast<TenantId>(t), AppRequest::kPut);
  }
  metrics::Table table({"metric", "value"});
  table.AddRow({"puts_ok", std::to_string(totals.puts_ok)});
  table.AddRow({"puts_err", std::to_string(totals.puts_err)});
  table.AddRow({"gets_ok_exact", std::to_string(totals.gets_ok)});
  table.AddRow({"gets_err_or_mismatch", std::to_string(totals.gets_err)});
  table.AddRow({"normalized_gets", metrics::FormatDouble(norm_gets, 1)});
  table.AddRow({"normalized_puts", metrics::FormatDouble(norm_puts, 1)});
  table.AddRow({"virtual_time_ms",
                std::to_string(loop.Now() / kMillisecond)});
  Emit(args, table);

  Section(args, "Mega demo: engine");
  std::printf("parallel engine: %d loops, lookahead %lld ns, %llu epochs, "
              "%llu cross-loop messages\n",
              rig.multi->num_loops(),
              static_cast<long long>(rig.multi->lookahead()),
              static_cast<unsigned long long>(rig.multi->epochs()),
              static_cast<unsigned long long>(rig.multi->messages_sent()));

  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  // stderr, not stdout: wall-clock time and memory vary run to run and
  // stdout must stay byte-diffable. ru_maxrss is in KiB on Linux.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::fprintf(stderr,
               "wall-clock: %.2fs (--sim-threads=%d) peak-rss: %ld MB\n",
               wall_secs, args.sim_threads, usage.ru_maxrss / 1024);

  const uint64_t expected =
      static_cast<uint64_t>(mega.tenants) * static_cast<uint64_t>(mega.rounds);
  if (totals.puts_err > 0 || totals.gets_err > 0 ||
      totals.puts_ok != expected || totals.gets_ok != expected) {
    std::fprintf(stderr, "FAIL: lost or failed operations\n");
    return 1;
  }
  std::printf("mega contract held: %llu puts and %llu exact readbacks across "
              "%d nodes.\n",
              static_cast<unsigned long long>(totals.puts_ok),
              static_cast<unsigned long long>(totals.gets_ok), cl.num_nodes());
  return 0;
}

}  // namespace
}  // namespace libra::bench

int main(int argc, char** argv) {
  libra::bench::BenchArgs args =
      libra::bench::ParseCommonFlags(argc, argv, {"--tenants=", "--rounds="});
  libra::bench::MegaFlags mega;
  bool nodes_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      nodes_given = true;
    } else if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      mega.tenants = static_cast<int>(
          libra::bench::ParseIntFlag("--tenants", argv[i] + 10, 1, 1 << 24));
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      mega.rounds = static_cast<int>(
          libra::bench::ParseIntFlag("--rounds", argv[i] + 9, 1, 1 << 20));
    }
  }
  if (!nodes_given) {
    args.nodes = 64;  // this demo's natural scale; --nodes still overrides
  }
  return libra::bench::RunDemo(args, mega);
}
