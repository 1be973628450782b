// Shared infrastructure for the figure-reproduction benches: flag parsing
// (--full for the paper's full grids, --csv for machine-readable output,
// --jobs=N for parallel sweeps), memoized device calibration and
// preconditioning, the raw-IO experiment cell runner used by the Fig. 4/5/7/9
// harnesses, and the sweep runner that fans independent cells across cores.

#ifndef LIBRA_BENCH_BENCH_COMMON_H_
#define LIBRA_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/iosched/cost_model.h"
#include "src/metrics/table.h"
#include "src/obs/span.h"
#include "src/ssd/calibration.h"
#include "src/ssd/profile.h"

namespace libra::bench {

struct BenchArgs {
  bool full = false;        // paper-size grids (slower)
  bool csv = false;         // CSV instead of aligned text
  std::string stats_json;   // --stats-json=PATH: machine-readable snapshot
  int jobs = 1;             // --jobs=N: worker threads for sweeps (0 = all cores)
  int nodes = 4;            // --nodes=N: cluster size (multi-node benches)
  std::string trace_json;   // --trace-json=PATH: Chrome/Perfetto span export
  uint32_t trace_sample = 1;  // --trace-sample=1/N: trace 1 of every N roots
  // --sim-threads=N: worker threads for the multi-node benches' epoch-barrier
  // MultiLoop engine (0 = all cores); output is byte-identical for every N
  // at a fixed --rpc-latency-us, only wall-clock time changes.
  int sim_threads = 1;
  // --rpc-latency-us=N (N >= 1): one-way cross-node RPC latency, which
  // doubles as the engine's conservative lookahead.
  SimDuration rpc_latency = 50 * kMicrosecond;
};

// Parses the flags shared by every bench binary (--full, --csv,
// --stats-json=PATH, --jobs=N, --nodes=N, --trace-json=PATH,
// --trace-sample=1/N, --sim-threads=N, --rpc-latency-us=N) and installs the
// --stats-json capture hook. `own_flags` declares the flags the binary
// parses itself by their "--name=" prefixes (e.g. {"--seed="}). A
// malformed value or any other argument is a usage error: the message
// names it and the process exits 2.
BenchArgs ParseCommonFlags(
    int argc, char** argv,
    std::initializer_list<std::string_view> own_flags = {});

// Parses `flag`'s value as a whole base-10 integer in [min, max]; anything
// else (empty, trailing garbage, out of range) is a usage error: the
// message names the flag and the accepted range, and the process exits 2.
// Binaries parse their own numeric flags with it too.
long long ParseIntFlag(const char* flag, const char* value, long long min,
                       long long max);

// True when --trace-json=PATH was given: benches should enable span
// collection on their schedulers/nodes and export the spans before exit.
inline bool TraceRequested(const BenchArgs& args) {
  return !args.trace_json.empty();
}

// Renders `groups` (one per node) as Chrome trace_event JSON — loadable in
// Perfetto / chrome://tracing — and writes it to the --trace-json path.
// Call while the collectors are still alive (the schedulers own them); the
// capture is not deferred to process exit. No-op without the flag.
void WriteTraceJson(const BenchArgs& args,
                    const std::vector<obs::SpanExportGroup>& groups);

// Calibration for a device profile, computed once per process together
// with the preconditioned FTL that every RunRawCell of the profile copies.
// Thread-safe; still, call it once per profile before a parallel sweep (a
// cold first lookup runs the calibration under the cache lock, serializing
// workers).
const ssd::CalibrationTable& TableFor(const ssd::DeviceProfile& profile);

// --- parallel sweep runner ---
//
// Fans the cells of an experiment sweep across --jobs threads (ParallelFor).
// Cells must be independent (each RunRawCell / KV cell builds its own
// EventLoop, device and scheduler, so they are), and each cell's result is
// written to its own slot — emission stays serial, in index order, after
// the pool drains, so output is byte-identical to a serial run regardless
// of --jobs.
class SweepRunner {
 public:
  // jobs <= 1 runs cells inline on the calling thread (no pool, no
  // threads). jobs == 0 is resolved by ParseCommonFlags, not here.
  explicit SweepRunner(int jobs) : jobs_(jobs) {}

  // ParallelFor(jobs, count, fn): the first exception a cell throws is
  // rethrown here after the pool joins.
  void ForEach(size_t count, const std::function<void(size_t)>& fn) const {
    ParallelFor(jobs_, count, fn);
  }

  // ForEach that collects fn(i) into a vector in index order.
  template <typename R, typename Fn>
  std::vector<R> Map(size_t count, Fn&& fn) const {
    std::vector<R> out(count);
    ForEach(count, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

  int jobs() const { return jobs_; }

 private:
  int jobs_;
};

// Emits a table in the format the args request. With --stats-json, the
// table is also captured (as JSON, under the current Section title) into
// the stats file written at process exit.
void Emit(const BenchArgs& args, const metrics::Table& table);

// Prints a section header (skipped in CSV mode) and names the sections
// captured into --stats-json until the next call.
void Section(const BenchArgs& args, const std::string& title);

// Captures a pre-rendered JSON document (e.g. kv::NodeStatsToJson output)
// as a named section of the --stats-json file. No-op without the flag.
void AddStatsSection(const BenchArgs& args, const std::string& name,
                     std::string json);

// --- raw-IO experiment cell (paper §4.2/§6.2 setup) ---
//
// 8 tenants with equal VOP allocations at queue depth 32, split into two
// halves (A = first half, B = second half):
//   kMixed:     every tenant issues reads (size_a) and writes (size_b) at
//               read_fraction — the mixed-ratio maps of Fig. 4.
//   kReadWrite: half pure readers (size_a), half pure writers (size_b) —
//               Fig. 4's "1:1" map and the Fig. 7 insulation grid.
//   kReadRead / kWriteWrite: both halves same op type at sizes a and b —
//               the rr/ww panels of Fig. 9.
// Sizes may be fixed or log-normal (sigma > 0).
enum class CellMode { kMixed, kReadWrite, kReadRead, kWriteWrite };

struct RawCellSpec {
  CellMode mode = CellMode::kMixed;
  double read_fraction = 0.5;   // kMixed only
  double size_a_bytes = 4096;
  double size_b_bytes = 4096;
  double sigma_bytes = 0.0;     // applied to both
  std::string cost_model = "exact";
  int num_tenants = 8;
  int workers_per_tenant = 4;   // 8 x 4 = QD 32
  SimDuration warmup = 300 * kMillisecond;
  SimDuration measure = 2 * kSecond;
  uint64_t seed = 11;
};

struct RawCellResult {
  double total_vops_per_sec = 0.0;      // under the exact model
  // Per-tenant rates over the measurement window:
  std::vector<double> tenant_vops;        // VOP/s charged by the model under test
  std::vector<double> tenant_exact_vops;  // VOP/s re-priced with the exact model
  std::vector<double> tenant_iops;        // physical ops/s completed
  std::vector<double> tenant_bytes;       // bytes/s moved
  std::vector<bool> tenant_is_reader;     // exclusive mode labeling
};

RawCellResult RunRawCell(const ssd::DeviceProfile& profile,
                         const RawCellSpec& spec);

// Per-size IOP-size grid used by the sweeps: {1,2,...,256} KB (full) or a
// coarse subset (quick).
std::vector<uint32_t> SweepSizesKb(bool full);

}  // namespace libra::bench

#endif  // LIBRA_BENCH_BENCH_COMMON_H_
