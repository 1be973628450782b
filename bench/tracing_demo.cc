// Tracing demo: end-to-end causal spans plus the two online monitors.
//
// One storage node, two PUT-heavy tenants with small write buffers so
// flushes and compactions churn. A calibration simulation first measures
// each tenant's attribution matrix q̂^{a,i}; the main run then registers
// tenant 1 with that honest profile and tenant 2 with a deliberately
// dishonest one (its write amplification zeroed — PUTs claimed to cost
// only their direct WAL IO). The main run uses different workload seeds
// than calibration, so conformance is a real statistical check, and the
// demo verifies:
//   1. causality — at least one COMPACT device-IO span reaches a PUT
//      request span by walking parent edges and causal links backwards;
//   2. conformance — the honest tenant's observed matrix stays within 10%
//      of its declaration while the mis-declared tenant is flagged;
// and reports per-tenant SLA conformance from the policy's monitor.
// With --trace-json=PATH the spans are exported as Chrome trace_event JSON
// (loadable in ui.perfetto.dev); --trace-sample=1/N thins request traces.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/kv_bench_common.h"
#include "src/kv/node_stats.h"
#include "src/metrics/table.h"
#include "src/obs/span.h"
#include "src/workload/workload.h"

namespace libra::bench {
namespace {

using iosched::AppRequest;
using iosched::InternalOp;
using iosched::TenantId;

constexpr TenantId kHonest = 1;
constexpr TenantId kMisdeclared = 2;

// A declaration copied from an observed matrix: the profile a tenant that
// measured its own workload would hand the provider.
obs::DeclaredAttribution DeclareFrom(const obs::AttributionMatrix& m) {
  obs::DeclaredAttribution d;
  d.declared = true;
  for (int a = 0; a < obs::kAttrApps; ++a) {
    for (int i = 0; i < obs::kAttrInternal; ++i) {
      d.at(a, i) = m.Q(a, i);
    }
  }
  return d;
}

// One simulated run: preload, then the closed-loop mix for `duration`.
// `declared` (when non-null) registers each tenant with its profile;
// `seed_base` varies the workload RNG between calibration and main run.
struct RunOutput {
  kv::NodeStats stats;
  std::vector<obs::SpanRecord> spans;
  std::map<TenantId, obs::AttributionMatrix> observed;
};

RunOutput RunOnce(const BenchArgs& args, SimDuration duration,
                  uint64_t seed_base,
                  const std::map<TenantId, obs::DeclaredAttribution>* declared,
                  bool export_artifacts) {
  // Single-node demo: with --sim-threads/--rpc-latency-us the node simply
  // lives on the parallel engine's only loop, which pins the degenerate
  // one-loop case of the epoch engine to the serial EventLoop's output.
  SimRig rig = MakeSimRig(args, /*nodes=*/0);
  sim::EventLoop& loop = rig.client();
  kv::NodeOptions opt = PrototypeNodeOptions();
  // Small buffers/levels so flush + compaction churn within seconds.
  opt.lsm_options.write_buffer_bytes = 256 * kKiB;
  opt.lsm_options.target_file_bytes = 128 * kKiB;
  opt.lsm_options.max_bytes_level1 = 512 * kKiB;
  // Span collection is the point of this demo: always on, flag-thinned.
  opt.scheduler_options.span_capacity = 1 << 16;
  opt.scheduler_options.span_sample_every = args.trace_sample;
  opt.attribution_tolerance = 0.10;
  kv::StorageNode node(loop, opt);
  for (TenantId t : {kHonest, kMisdeclared}) {
    obs::DeclaredAttribution d;
    if (declared != nullptr) {
      if (auto it = declared->find(t); it != declared->end()) {
        d = it->second;
      }
    }
    (void)node.AddTenant(t, {500.0, 500.0}, d);
  }

  std::vector<std::unique_ptr<workload::KvTenantWorkload>> wls;
  std::vector<workload::KvTenantWorkload*> raw;
  for (TenantId t : {kHonest, kMisdeclared}) {
    workload::KvWorkloadSpec spec;
    spec.get_fraction = 0.3;  // PUT-heavy: drives flush/compaction spans
    spec.get_size = {1024.0, 0.0};
    spec.put_size = {1024.0, 0.0};
    spec.live_bytes_target = 2ULL * kMiB;
    spec.workers = 8;
    wls.push_back(std::make_unique<workload::KvTenantWorkload>(
        loop, node, t, spec, seed_base + t));
    raw.push_back(wls.back().get());
  }
  RunPreloads(rig, raw);

  {
    sim::TaskGroup group(loop);
    const SimTime start = loop.Now();
    node.Start();
    for (auto& wl : wls) {
      wl->Start(group, start + duration);
    }
    rig.RunUntil(start + duration + kSecond);
    node.Stop();
    rig.Run();
  }

  RunOutput out;
  out.stats = node.Snapshot();
  out.spans = node.scheduler().spans()->Spans();
  for (TenantId t : {kHonest, kMisdeclared}) {
    if (const std::optional<obs::AttributionMatrix> m =
            node.tracker().Attribution(t)) {
      out.observed[t] = *m;
    }
  }
  // Export while the collector is still alive (the node owns it).
  if (export_artifacts) {
    AddStatsSection(args, "node", kv::NodeStatsToJson(out.stats));
    WriteTraceJson(args, {{node.scheduler().spans(), 0, "node0"}});
  }
  return out;
}

int RunDemo(const BenchArgs& args) {
  const SimDuration duration = (args.full ? 12 : 6) * kSecond;

  // Calibration run: measure each tenant's attribution matrix.
  const RunOutput calib = RunOnce(args, duration, /*seed_base=*/4200,
                                  /*declared=*/nullptr,
                                  /*export_artifacts=*/false);
  std::map<TenantId, obs::DeclaredAttribution> declared;
  for (const auto& [t, m] : calib.observed) {
    declared[t] = DeclareFrom(m);
  }
  // The mis-declared tenant claims its PUTs have no flush/compaction
  // amplification (direct WAL IO only).
  if (auto it = declared.find(kMisdeclared); it != declared.end()) {
    it->second.at(static_cast<int>(AppRequest::kPut),
                  static_cast<int>(InternalOp::kFlush)) = 0.0;
    it->second.at(static_cast<int>(AppRequest::kPut),
                  static_cast<int>(InternalOp::kCompact)) = 0.0;
  }

  // Main run: same workload statistics, different RNG seeds, profiles
  // declared up front — the monitor judges them online.
  const RunOutput main_run = RunOnce(args, duration, /*seed_base=*/9300,
                                     &declared, /*export_artifacts=*/true);
  const kv::NodeStats& stats = main_run.stats;
  const std::vector<obs::SpanRecord>& spans = main_run.spans;

  Section(args, "Attribution + SLA conformance (tolerance 10%)");
  {
    metrics::Table t({"tenant", "declared", "divergence", "conformant",
                      "sla_intervals", "sla_violations", "sla_rate"});
    for (const kv::TenantSnapshot& ts : stats.tenants) {
      t.AddRow({std::to_string(ts.tenant),
                ts.attribution.declared.declared ? "yes" : "no",
                metrics::FormatDouble(ts.attribution.report.divergence, 3),
                ts.attribution.conformant ? "yes" : "NO",
                std::to_string(ts.sla.sla.intervals),
                std::to_string(ts.sla.sla.violations),
                metrics::FormatDouble(ts.sla.sla.violation_rate(), 3)});
    }
    Emit(args, t);
  }

  // Causality: every COMPACT device IO should walk back to a PUT request.
  const std::unordered_set<uint64_t> reaches_put =
      obs::CausallyReaching(spans, [](const obs::SpanRecord& r) {
        return r.kind == obs::SpanKind::kRequest &&
               r.app == static_cast<uint8_t>(AppRequest::kPut);
      });
  uint64_t compact_ios = 0;
  uint64_t compact_ios_linked = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.kind == obs::SpanKind::kDeviceIo &&
        s.internal == static_cast<uint8_t>(InternalOp::kCompact)) {
      ++compact_ios;
      if (reaches_put.contains(s.span_id)) {
        ++compact_ios_linked;
      }
    }
  }
  std::printf(
      "spans: %zu retained (%llu recorded, %llu dropped); COMPACT device "
      "IOs: %llu, causally linked to a PUT request: %llu\n",
      spans.size(),
      static_cast<unsigned long long>(stats.spans.recorded),
      static_cast<unsigned long long>(stats.spans.dropped),
      static_cast<unsigned long long>(compact_ios),
      static_cast<unsigned long long>(compact_ios_linked));

  if (TraceRequested(args)) {
    std::printf("trace written to %s (load in ui.perfetto.dev)\n",
                args.trace_json.c_str());
  }

  // --- contract checks ---
  const kv::TenantSnapshot* honest = nullptr;
  const kv::TenantSnapshot* lying = nullptr;
  for (const kv::TenantSnapshot& ts : stats.tenants) {
    if (ts.tenant == kHonest) {
      honest = &ts;
    } else if (ts.tenant == kMisdeclared) {
      lying = &ts;
    }
  }
  int failures = 0;
  if (compact_ios_linked == 0) {
    std::fprintf(stderr,
                 "FAIL: no COMPACT device-IO span reaches a PUT request\n");
    ++failures;
  }
  if (honest == nullptr || !honest->attribution.declared.declared ||
      !honest->attribution.conformant ||
      honest->attribution.report.divergence > 0.10) {
    std::fprintf(stderr,
                 "FAIL: honest tenant not conformant within 10%%\n");
    ++failures;
  }
  if (lying == nullptr || !lying->attribution.declared.declared ||
      lying->attribution.conformant) {
    std::fprintf(stderr, "FAIL: mis-declared tenant not flagged\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("tracing contract held: compaction IO attributed to PUTs, "
                "honest tenant conformant, mis-declared tenant flagged.\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace libra::bench

int main(int argc, char** argv) {
  const libra::bench::BenchArgs args =
      libra::bench::ParseCommonFlags(argc, argv);
  return libra::bench::RunDemo(args);
}
