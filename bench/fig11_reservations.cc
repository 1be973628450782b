// Figure 11: achieving app-request reservations, with and without
// app-request resource-profile tracking.
//
// Eight tenants: three read-heavy (90:10, ~4KB GETs / 16KB PUTs), two
// mixed (50:50, 64KB GETs / 16KB PUTs), three write-heavy (10:90, 128KB
// GETs and PUTs); log-normal sizes, sigma 1KB. Phases:
//   phase 0 (profiling): equal shares, work-conserving; profiles build.
//   phase 1: reservations sized to split the provisionable floor evenly
//            across tenants at their amplified cost (the paper's setup).
//   phase 2: read-heavy reservations -50%, write-heavy +50%.
// With full profile tracking Libra reprovisions the write-heavy tenants'
// amplified FLUSH/COMPACT cost and meets the raised reservation; with
// object-size-only pricing ("no profile") the allocation misses the
// secondary IO and the write-heavy tenants fall short.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/kv_bench_common.h"
#include "src/iosched/capacity.h"
#include "src/kv/node_stats.h"

namespace libra::bench {
namespace {

using iosched::AppRequest;
using iosched::ProfileMode;
using iosched::Reservation;
using iosched::TenantId;

struct Group {
  const char* name;
  int first_tenant;
  int count;
  double get_fraction;
  double get_kb;
  double put_kb;
  // Scale applied to the group's reservation in phase 2.
  double phase2_scale;
};

constexpr Group kGroups[] = {
    {"read-heavy", 0, 3, 0.9, 4, 16, 0.5},
    {"mixed", 3, 2, 0.5, 64, 16, 1.0},
    {"write-heavy", 5, 3, 0.1, 128, 128, 1.5},
};

struct PhaseResult {
  double get_rate = 0.0;  // normalized kGET/s per tenant (group mean)
  double put_rate = 0.0;
  double get_res = 0.0;   // reservation at that phase
  double put_res = 0.0;
};

// Normalized GET:PUT demand ratio of a group.
double NormalizedRatio(const Group& g) {
  return (g.get_fraction * g.get_kb) / ((1.0 - g.get_fraction) * g.put_kb);
}

// One full simulation per profile mode; modes are independent, so main()
// fans them across --jobs workers. Everything side-effecting (tables,
// stats-json sections) is returned and emitted serially by the caller, in
// mode order — the output is byte-identical to a serial run.
struct ModeResult {
  std::vector<std::vector<PhaseResult>> groups;
  std::string stats_name;
  std::string stats_json;
};

ModeResult RunMode(const BenchArgs& args, ProfileMode mode) {
  sim::EventLoop loop;
  kv::NodeOptions opt = PrototypeNodeOptions();
  opt.policy_options.mode = mode;
  // Trace only the profile-tracking mode: one --trace-json file per run.
  if (mode == ProfileMode::kFull) {
    ApplyTraceFlags(args, opt);
  }
  kv::StorageNode node(loop, opt);

  std::vector<std::unique_ptr<workload::KvTenantWorkload>> workloads;
  std::vector<workload::KvTenantWorkload*> preloads;
  for (const Group& g : kGroups) {
    for (int i = 0; i < g.count; ++i) {
      const TenantId t = static_cast<TenantId>(g.first_tenant + i);
      (void)node.AddTenant(t, Reservation{});
      workload::KvWorkloadSpec spec;
      spec.get_fraction = g.get_fraction;
      spec.get_size = {g.get_kb * 1024.0, 1024.0};
      spec.put_size = {g.put_kb * 1024.0, 1024.0};
      spec.live_bytes_target = args.full ? 32ULL * kMiB : 12ULL * kMiB;
      spec.workers = 8;
      workloads.push_back(std::make_unique<workload::KvTenantWorkload>(
          loop, node, t, spec, 1000 + t));
      preloads.push_back(workloads.back().get());
    }
  }
  RunPreloads(loop, preloads);

  const SimDuration phase = args.full ? 100 * kSecond : 50 * kSecond;
  const SimTime t0 = loop.Now();
  const SimTime t1 = t0 + phase;      // reservations set
  const SimTime t2 = t1 + phase;      // reservations shifted
  const SimTime t_end = t2 + phase;

  node.Start();

  // Measure the node's achievable VOP throughput for this tenant mix over
  // the tail of the profiling phase; reservations are sized to divide it
  // evenly (the paper's setup: reservations "evenly divide the underlying
  // IO resources given their full (amplified) IO cost"), so they bind.
  double probe_vops = 0.0;
  double achievable_vops_rate = 0.0;
  loop.ScheduleAt(t1 - 10 * kSecond,
                  [&] { probe_vops = node.tracker().total_vops(); });
  loop.ScheduleAt(t1 - kMillisecond, [&] {
    achievable_vops_rate =
        (node.tracker().total_vops() - probe_vops) / ToSeconds(10 * kSecond);
  });

  // Phase transitions: reservations computed from live profiles so that
  // each tenant's VOP allocation is 1/8 of the provisionable floor.
  std::vector<Reservation> base_res(8);
  auto set_reservations = [&](double rh_scale, double wh_scale) {
    for (const Group& g : kGroups) {
      const double scale = g.first_tenant == 0   ? rh_scale
                           : g.first_tenant == 5 ? wh_scale
                                                 : 1.0;
      for (int i = 0; i < g.count; ++i) {
        const TenantId t = static_cast<TenantId>(g.first_tenant + i);
        const double price_get =
            node.policy().ProfileOf(t, AppRequest::kGet).total();
        const double price_put =
            node.policy().ProfileOf(t, AppRequest::kPut).total();
        // Reservations sit at the edge of the achievable capacity (the
        // paper's Fig. 11 shows achieved ~= reserved for the mixed and
        // write-heavy groups): an even 1/8 split plus the slack work
        // conservation was already delivering.
        const double target = 1.1 * achievable_vops_rate / 8.0;
        const double ratio = NormalizedRatio(g);
        const double v_put = target / (ratio * price_get + price_put);
        Reservation r{ratio * v_put * scale, v_put * scale};
        base_res[t] = Reservation{ratio * v_put, v_put};
        node.UpdateReservation(t, r);
      }
    }
  };
  loop.ScheduleAt(t1, [&] { set_reservations(1.0, 1.0); });
  loop.ScheduleAt(t2, [&] { set_reservations(0.5, 1.5); });

  // Phase boundary snapshots of normalized request totals.
  struct Snap {
    double gets[8], puts[8];
  };
  Snap s1{}, s2{}, s3{};
  auto snap = [&](Snap* out) {
    for (TenantId t = 0; t < 8; ++t) {
      out->gets[t] = node.tracker().NormalizedRequestsTotal(t, AppRequest::kGet);
      out->puts[t] = node.tracker().NormalizedRequestsTotal(t, AppRequest::kPut);
    }
  };
  loop.ScheduleAt(t1, [&] { snap(&s1); });
  loop.ScheduleAt(t2, [&] { snap(&s2); });
  loop.ScheduleAt(t_end, [&] { snap(&s3); });

  {
    sim::TaskGroup group(loop);
    for (auto& wl : workloads) {
      wl->Start(group, t_end);
    }
    // The started policy keeps a timer pending forever: bound the run,
    // stop it, then drain the finite remainder.
    loop.RunUntil(t_end + kSecond);
    node.Stop();
    loop.Run();
  }

  ModeResult result;
  // Full-stack observability snapshot for --stats-json, taken while the
  // node (and its per-tenant histograms / audit log) is still alive; the
  // caller registers it (serially) once the mode finishes.
  result.stats_name = mode == ProfileMode::kFull ? "node_snapshot_full_profile"
                                                 : "node_snapshot_object_size";
  result.stats_json = kv::NodeStatsToJson(node.Snapshot());
  // Export the trace while the node (which owns the collector) is alive.
  if (mode == ProfileMode::kFull && TraceRequested(args)) {
    WriteTraceJson(args, {{node.scheduler().spans(), 0, "fig11_full_profile"}});
  }

  // Fold into per-group phase means.
  const double secs = ToSeconds(phase);
  for (const Group& g : kGroups) {
    std::vector<PhaseResult> phases(2);
    for (int i = 0; i < g.count; ++i) {
      const TenantId t = static_cast<TenantId>(g.first_tenant + i);
      phases[0].get_rate += (s2.gets[t] - s1.gets[t]) / secs / g.count;
      phases[0].put_rate += (s2.puts[t] - s1.puts[t]) / secs / g.count;
      phases[1].get_rate += (s3.gets[t] - s2.gets[t]) / secs / g.count;
      phases[1].put_rate += (s3.puts[t] - s2.puts[t]) / secs / g.count;
      phases[0].get_res += base_res[t].get_rps() / g.count;
      phases[0].put_res += base_res[t].put_rps() / g.count;
    }
    const double scale = g.first_tenant == 0 ? 0.5 : g.first_tenant == 5 ? 1.5 : 1.0;
    phases[1].get_res = phases[0].get_res * scale;
    phases[1].put_res = phases[0].put_res * scale;
    result.groups.push_back(phases);
  }
  return result;
}

}  // namespace
}  // namespace libra::bench

int main(int argc, char** argv) {
  using namespace libra::bench;
  const BenchArgs args = ParseCommonFlags(argc, argv);

  using libra::iosched::ProfileMode;
  const std::pair<ProfileMode, const char*> modes[] = {
      {ProfileMode::kFull, "Libra (profile tracking)"},
      {ProfileMode::kObjectSizeOnly, "No profile (object-size pricing)"}};

  // The two profile modes are independent simulations: run them across
  // --jobs workers, then emit in the fixed mode order. --sim-threads is
  // honored as a sweep width too — this figure is single-node, so its
  // parallelism is mode-level (one worker per simulation), not the
  // cluster demos' per-node epoch engine; output is identical either way.
  TableFor(libra::ssd::Intel320Profile());  // warm before the pool starts
  SweepRunner runner(std::max(args.jobs, args.sim_threads));
  const std::vector<ModeResult> mode_results =
      runner.Map<ModeResult>(std::size(modes), [&](size_t i) {
        return RunMode(args, modes[i].first);
      });

  for (size_t mi = 0; mi < std::size(modes); ++mi) {
    const auto& [mode, label] = modes[mi];
    (void)mode;
    const std::vector<std::vector<PhaseResult>>& results =
        mode_results[mi].groups;
    AddStatsSection(args, mode_results[mi].stats_name,
                    mode_results[mi].stats_json);
    Section(args, std::string("Figure 11: ") + label);
    libra::metrics::Table out({"group", "phase", "GET_kreq/s", "GET_res",
                               "GET_ratio", "GET_met", "PUT_kreq/s",
                               "PUT_res", "PUT_ratio", "PUT_met"});
    // A reservation is "met" within a 5% SLA band.
    const auto met = [](double achieved, double reserved) {
      return achieved >= 0.95 * reserved ? "yes" : "NO";
    };
    for (size_t gi = 0; gi < results.size(); ++gi) {
      for (int p = 0; p < 2; ++p) {
        const PhaseResult& r = results[gi][p];
        out.AddRow({kGroups[gi].name, p == 0 ? "even" : "shifted",
                    libra::metrics::FormatDouble(r.get_rate / 1000.0, 2),
                    libra::metrics::FormatDouble(r.get_res / 1000.0, 2),
                    libra::metrics::FormatDouble(r.get_rate / r.get_res, 2),
                    met(r.get_rate, r.get_res),
                    libra::metrics::FormatDouble(r.put_rate / 1000.0, 2),
                    libra::metrics::FormatDouble(r.put_res / 1000.0, 2),
                    libra::metrics::FormatDouble(r.put_rate / r.put_res, 2),
                    met(r.put_rate, r.put_res)});
      }
    }
    Emit(args, out);
  }
  std::printf(
      "paper signature: with tracking, achieved/reserved ratios are uniform "
      "across groups (everyone absorbs the same small trim when the node is "
      "booked to its edge); without tracking, the write-heavy tenants' "
      "raised reservation is violated (~0.92-0.93) while the fairly-priced "
      "mixed tenants over-serve at ~1.4x -- the secondary-IO blind spot.\n");
  return 0;
}
