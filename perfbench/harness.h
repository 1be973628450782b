// Shared pieces of the benchmark harness: seeded input generation, the
// percentile rule, the in-memory span recorder, process resource readings
// and the per-run result every workload fills in.
//
// The harness drives the simulator only through its public API
// (kv::StorageNode, cluster::Cluster/TenantHandle, sim::EventLoop/MultiLoop)
// and generates every key, value, size and arrival itself from --seed.

#ifndef LIBRA_PERFBENCH_HARNESS_H_
#define LIBRA_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/units.h"

namespace libra::perfbench {

// --- seeded inputs -----------------------------------------------------------

// splitmix64 stream; Derive() gives independent per-tenant/per-purpose
// streams from the one --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  static uint64_t Derive(uint64_t seed, uint64_t stream);

  uint64_t Next();
  double Uniform();  // [0, 1)
  uint64_t Below(uint64_t n);
  double Exponential(double mean);
  // Log-normal with the given byte mean and standard deviation, clamped.
  uint64_t LogNormal(double mean, double sigma, uint64_t lo, uint64_t hi);

 private:
  uint64_t state_;
};

// Zipf(theta) over [0, n): rank r drawn from the exact CDF, then mapped
// through a seeded permutation so hot keys are spread over the key range.
class Zipf {
 public:
  Zipf(uint64_t n, double theta, uint64_t seed);
  uint64_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> perm_;
};

// A value of `size` bytes whose contents are a function of (key, version),
// so an exact readback check needs only the key's version and size.
std::string MakeValue(const std::string& key, uint64_t version, size_t size);
// Whether `v` equals MakeValue(key, version, size), without building it.
bool IsValue(std::string_view v, const std::string& key, uint64_t version,
             size_t size);

// Fixed-width decimal key: lexicographic order equals numeric order.
std::string IndexKey(char prefix, uint64_t index);

// `s` as the body of a JSON string: quotes and backslashes escaped,
// control characters blanked.
std::string JsonEscape(const std::string& s);

// --- percentiles -------------------------------------------------------------

// The reporting rule for tail percentiles: use the requested quantile only
// if at least 10 samples lie beyond it, else fall back down the ladder
// 0.99, 0.95, 0.9, 0.75, 0.5 and say so in `note`.
double ChooseQuantile(uint64_t n, double p, std::string* note);

// Latency samples of one request class. A failed request is recorded as a
// failure and counts as +infinity: it misses every latency bound.
class LatencySamples {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  void AddFailure() { ++failures_; }
  uint64_t count() const { return ns_.size() + failures_; }
  uint64_t failures() const { return failures_; }
  // Mean in milliseconds (+infinity if any request failed).
  double MeanMs() const;
  // Quantile in milliseconds; `tail` applies ChooseQuantile's rule.
  double QuantileMs(double p, bool tail, std::string* note) const;

 private:
  mutable std::vector<int64_t> ns_;
  mutable bool sorted_ = false;
  uint64_t failures_ = 0;
};

// Quantile of plain doubles (wall times of slices, AddTenant calls).
double QuantileOf(std::vector<double> values, double p, bool tail,
                  std::string* note);

// --- process resources (getrusage) ------------------------------------------

struct Usage {
  double cpu_s = 0.0;      // user + system, all threads
  double maxrss_kb = 0.0;  // peak resident set so far
};
Usage ReadUsage();

double WallNow();  // steady clock, seconds

// --- spans -------------------------------------------------------------------

// In-memory span recorder around the harness's own calls into the program.
// Disabled recorders do nothing; Write() dumps Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;
    double wall_start_s = 0.0;
    double wall_end_s = 0.0;
    SimTime vt_start = 0;
    SimTime vt_end = 0;
    std::map<std::string, double> counters;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Returns the span id (or -1 when disabled); End() closes it.
  int Begin(const std::string& name, SimTime vt, int parent = -1);
  void End(int id, SimTime vt, std::map<std::string, double> counters = {});

  bool Write(const std::string& path,
             const std::map<std::string, std::string>& notes) const;

 private:
  bool enabled_;
  double origin_ = WallNow();
  std::vector<Span> spans_;
};

// --- one repetition's result ---------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int threads = 1;  // engine workers (cluster workload only)
  double process_start_s = 0.0;  // WallNow() at main() entry
  bool setup_only = false;       // exit once set-up is timed (ExitAfterSetup)
};

struct RepResult {
  // Correctness gate: every failed check by name.
  std::vector<std::string> failed_checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;  // requests finished inside the measured phase
  double setup_s = 0.0;    // process start to first measured request
  double measure_s = 0.0;  // wall time of the measured phase
  double measure_cpu_s = 0.0;
  // Virtual-time metrics: deterministic for a seed, compared bit for bit.
  std::map<std::string, double> virt;
  // Wall-derived layer metrics.
  std::map<std::string, double> wall;
  // Fallbacks, sample counts and reasons for metrics left at 0.
  std::map<std::string, std::string> notes;

  void Check(bool ok, const std::string& name) {
    if (!ok) {
      failed_checks.push_back(name);
    }
  }
};

// For --setup-only: prints {"setup_s":…,"failed_checks":[…]} and exits the
// process at once, skipping the measured phase and all teardown.
[[noreturn]] void ExitAfterSetup(const RepResult& r);

RepResult RunNodeIngest(const RunConfig& cfg, Tracer& tracer);
RepResult RunNodeReadCached(const RunConfig& cfg, Tracer& tracer);
RepResult RunClusterTenants(const RunConfig& cfg, Tracer& tracer);

// Harness self-tests (percentile rule, failure accounting, getrusage).
// Returns the names of failed tests.
std::vector<std::string> SelfTest();

}  // namespace libra::perfbench

#endif  // LIBRA_PERFBENCH_HARNESS_H_
