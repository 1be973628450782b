#include "bench/bench_common.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/obs/json.h"

#include "src/common/rng.h"
#include "src/iosched/scheduler.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/ssd/device.h"
#include "src/workload/workload.h"

namespace libra::bench {
namespace {

// --stats-json capture: sections accumulate as (name, raw JSON document)
// pairs and are written as one file when the process exits, so every bench
// gets the flag without changing its main().
struct StatsCapture {
  std::string path;
  std::string current_section = "output";
  std::vector<std::pair<std::string, std::string>> sections;
};

StatsCapture* g_stats = nullptr;

void WriteStatsFile() {
  if (g_stats == nullptr || g_stats->path.empty()) {
    return;
  }
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("sections");
  w.BeginArray();
  for (const auto& [name, json] : g_stats->sections) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("data");
    w.Raw(json);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  if (std::FILE* f = std::fopen(g_stats->path.c_str(), "w"); f != nullptr) {
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "stats-json: cannot write %s\n",
                 g_stats->path.c_str());
  }
}

// True when `arg` starts with one of the `own_flags` prefixes.
bool IsOwnFlag(std::string_view arg,
               std::initializer_list<std::string_view> own_flags) {
  for (std::string_view prefix : own_flags) {
    if (arg.starts_with(prefix)) {
      return true;
    }
  }
  return false;
}

}  // namespace

long long ParseIntFlag(const char* flag, const char* value, long long min,
                       long long max) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < min ||
      v > max) {
    std::fprintf(stderr, "%s: expected an integer in [%lld, %lld], got '%s'\n",
                 flag, min, max, value);
    std::exit(2);
  }
  return v;
}

BenchArgs ParseCommonFlags(int argc, char** argv,
                           std::initializer_list<std::string_view> own_flags) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      args.csv = true;
    } else if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
      args.stats_json = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      args.jobs =
          static_cast<int>(ParseIntFlag("--jobs", argv[i] + 7, 0, 1 << 16));
      if (args.jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        args.jobs = hw > 0 ? static_cast<int>(hw) : 1;
      }
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      args.nodes =
          static_cast<int>(ParseIntFlag("--nodes", argv[i] + 8, 1, 1 << 16));
    } else if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      args.trace_json = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--sim-threads=", 14) == 0) {
      args.sim_threads = static_cast<int>(
          ParseIntFlag("--sim-threads", argv[i] + 14, 0, 1 << 16));
      if (args.sim_threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        args.sim_threads = hw > 0 ? static_cast<int>(hw) : 1;
      }
    } else if (std::strncmp(argv[i], "--rpc-latency-us=", 17) == 0) {
      // Bounded so the nanosecond latency (and every message time built on
      // it) stays far from SimDuration overflow.
      args.rpc_latency =
          ParseIntFlag("--rpc-latency-us", argv[i] + 17, 1, 1000000000) *
          kMicrosecond;
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      const char* v = argv[i] + 15;
      if (std::strncmp(v, "1/", 2) == 0) {  // accept both "N" and "1/N"
        v += 2;
      }
      args.trace_sample = static_cast<uint32_t>(
          ParseIntFlag("--trace-sample", v, 1, UINT32_MAX));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "flags: --full (paper-size grids)  --csv (CSV output)  "
          "--stats-json=PATH (JSON stats snapshot)  "
          "--jobs=N (parallel sweep workers; 0 = all cores)  "
          "--nodes=N (cluster size, multi-node benches)  "
          "--trace-json=PATH (Chrome/Perfetto span export)  "
          "--trace-sample=1/N (trace 1 of every N root requests)  "
          "--sim-threads=N (sim engine workers; 0 = all cores)  "
          "--rpc-latency-us=N (cross-node RPC latency and engine lookahead, "
          "N >= 1; default 50)\n");
      std::exit(0);
    } else if (!IsOwnFlag(argv[i], own_flags)) {
      std::fprintf(stderr, "unknown flag '%s' (see --help)\n", argv[i]);
      std::exit(2);
    }
  }
  if (!args.stats_json.empty()) {
    // The file is written by an atexit handler, which cannot change the
    // exit status: an unwritable path must fail here, before the run. "a"
    // creates the file without truncating an existing one.
    std::FILE* f = std::fopen(args.stats_json.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "--stats-json: cannot write %s: %s\n",
                   args.stats_json.c_str(), std::strerror(errno));
      std::exit(2);
    }
    std::fclose(f);
  }
  if (!args.stats_json.empty() && g_stats == nullptr) {
    g_stats = new StatsCapture();
    g_stats->path = args.stats_json;
    std::atexit(WriteStatsFile);
  }
  return args;
}

void WriteTraceJson(const BenchArgs& args,
                    const std::vector<obs::SpanExportGroup>& groups) {
  if (args.trace_json.empty()) {
    return;
  }
  const std::string json = obs::SpansToChromeTraceJson(groups);
  if (std::FILE* f = std::fopen(args.trace_json.c_str(), "w"); f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "trace-json: cannot write %s\n",
                 args.trace_json.c_str());
    std::exit(1);
  }
}

const ssd::CalibrationTable& TableFor(const ssd::DeviceProfile& profile) {
  // The lock covers lookup and (cold) calibration; map nodes are stable, so
  // returned references stay valid across later insertions.
  static std::mutex mu;
  static std::map<std::string, ssd::CalibrationTable>* cache =
      new std::map<std::string, ssd::CalibrationTable>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(profile.name);
  if (it == cache->end()) {
    ssd::CalibrationOptions opt;
    opt.warmup = 300 * kMillisecond;
    opt.measure = 1 * kSecond;
    it = cache->emplace(profile.name, ssd::Calibrate(profile, opt)).first;
  }
  return it->second;
}

void SweepRunner::ForEach(size_t count,
                          const std::function<void(size_t)>& fn) const {
  if (jobs_ <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!failed.exchange(true)) {
          first_error = std::current_exception();
        }
      }
    }
  };
  const size_t nthreads =
      std::min<size_t>(static_cast<size_t>(jobs_), count);
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (size_t t = 0; t < nthreads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

void Emit(const BenchArgs& args, const metrics::Table& table) {
  std::fputs(args.csv ? table.ToCsv().c_str() : table.ToText().c_str(),
             stdout);
  std::fputc('\n', stdout);
  if (g_stats != nullptr) {
    g_stats->sections.emplace_back(g_stats->current_section, table.ToJson());
  }
}

void Section(const BenchArgs& args, const std::string& title) {
  if (!args.csv) {
    std::printf("== %s ==\n", title.c_str());
  }
  if (g_stats != nullptr) {
    g_stats->current_section = title;
  }
}

void AddStatsSection(const BenchArgs& args, const std::string& name,
                     std::string json) {
  (void)args;
  if (g_stats != nullptr) {
    g_stats->sections.emplace_back(name, std::move(json));
  }
}

std::vector<uint32_t> SweepSizesKb(bool full) {
  if (full) {
    return {1, 2, 4, 8, 16, 32, 64, 128, 256};
  }
  return {1, 4, 16, 64, 256};
}

RawCellResult RunRawCell(const ssd::DeviceProfile& profile,
                         const RawCellSpec& spec) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, profile);
  const uint64_t working_set =
      std::min<uint64_t>(1ULL * kGiB, profile.capacity_bytes / 2);
  device.Prefill(working_set);
  iosched::IoScheduler scheduler(
      loop, device,
      iosched::MakeCostModel(spec.cost_model, TableFor(profile)));
  // VOP accounting for the result always uses the exact model, regardless
  // of the model under test (Fig. 9's "VOP allocation accuracy" compares
  // true consumption).
  iosched::ExactCostModel exact(TableFor(profile));

  RawCellResult result;
  result.tenant_vops.assign(spec.num_tenants, 0.0);
  result.tenant_exact_vops.assign(spec.num_tenants, 0.0);
  result.tenant_iops.assign(spec.num_tenants, 0.0);
  result.tenant_bytes.assign(spec.num_tenants, 0.0);
  result.tenant_is_reader.assign(spec.num_tenants, false);

  std::vector<std::unique_ptr<workload::RawIoWorkload>> workloads;
  const SimTime end_time = spec.warmup + spec.measure;
  for (int t = 0; t < spec.num_tenants; ++t) {
    scheduler.SetAllocation(t, 1000.0);  // equal allocations
    const bool first_half = t < spec.num_tenants / 2;
    const double my_size = first_half ? spec.size_a_bytes : spec.size_b_bytes;
    workload::RawIoSpec w;
    switch (spec.mode) {
      case CellMode::kMixed:
        w.read_fraction = spec.read_fraction;
        w.read_size = {spec.size_a_bytes, spec.sigma_bytes, 1024, 1ULL * kMiB};
        w.write_size = {spec.size_b_bytes, spec.sigma_bytes, 1024, 1ULL * kMiB};
        result.tenant_is_reader[t] = spec.read_fraction >= 0.5;
        break;
      case CellMode::kReadWrite:
        w.read_fraction = first_half ? 1.0 : 0.0;
        w.read_size = {my_size, spec.sigma_bytes, 1024, 1ULL * kMiB};
        w.write_size = {my_size, spec.sigma_bytes, 1024, 1ULL * kMiB};
        result.tenant_is_reader[t] = first_half;
        break;
      case CellMode::kReadRead:
        w.read_fraction = 1.0;
        w.read_size = {my_size, spec.sigma_bytes, 1024, 1ULL * kMiB};
        result.tenant_is_reader[t] = true;
        break;
      case CellMode::kWriteWrite:
        w.read_fraction = 0.0;
        w.write_size = {my_size, spec.sigma_bytes, 1024, 1ULL * kMiB};
        result.tenant_is_reader[t] = false;
        break;
    }
    w.workers = spec.workers_per_tenant;
    w.working_set_bytes = working_set;
    workloads.push_back(std::make_unique<workload::RawIoWorkload>(
        loop, scheduler, static_cast<iosched::TenantId>(t), w,
        spec.seed + static_cast<uint64_t>(t) * 7919));
  }

  std::vector<iosched::TenantIoStats> at_warmup(spec.num_tenants);
  {
    sim::TaskGroup group(loop);
    for (auto& w : workloads) {
      w->Start(group, end_time);
    }
    loop.ScheduleAt(spec.warmup, [&] {
      for (int t = 0; t < spec.num_tenants; ++t) {
        at_warmup[t] = scheduler.tracker().Stats(t);
      }
    });
    loop.Run();
  }

  const double secs = ToSeconds(spec.measure);
  for (int t = 0; t < spec.num_tenants; ++t) {
    const auto& s = scheduler.tracker().Stats(t);
    const double r_ops =
        static_cast<double>(s.read_ops - at_warmup[t].read_ops);
    const double r_bytes =
        static_cast<double>(s.read_bytes - at_warmup[t].read_bytes);
    const double w_ops =
        static_cast<double>(s.write_ops - at_warmup[t].write_ops);
    const double w_bytes =
        static_cast<double>(s.write_bytes - at_warmup[t].write_bytes);
    result.tenant_iops[t] = (r_ops + w_ops) / secs;
    result.tenant_bytes[t] = (r_bytes + w_bytes) / secs;
    result.tenant_vops[t] = (s.vops - at_warmup[t].vops) / secs;
    // Re-price physical IO with the exact model (per-chunk mean size): the
    // true VOP throughput, regardless of the model under test.
    double exact_vops = 0.0;
    if (r_ops > 0) {
      exact_vops += r_ops * exact.Cost(ssd::IoType::kRead,
                                       static_cast<uint32_t>(r_bytes / r_ops));
    }
    if (w_ops > 0) {
      exact_vops += w_ops * exact.Cost(ssd::IoType::kWrite,
                                       static_cast<uint32_t>(w_bytes / w_ops));
    }
    result.tenant_exact_vops[t] = exact_vops / secs;
  }
  for (double v : result.tenant_exact_vops) {
    result.total_vops_per_sec += v;
  }
  return result;
}

}  // namespace libra::bench
