// Workload generators for the evaluation harnesses.
//
// RawIoWorkload drives the Libra scheduler directly with backlogged
// low-level reads/writes (paper §4.2/§6.2 experiments: Figs. 4, 5, 7, 9).
// KvTenantWorkload drives the full storage node with GET/PUT mixes and
// log-normal request sizes (Figs. 2, 10, 11, 12). Both are closed-loop:
// a fixed number of workers each keep one request outstanding, matching the
// paper's "backlogged demand specified by a bounded number of concurrent IO
// request workers".

#ifndef LIBRA_SRC_WORKLOAD_WORKLOAD_H_
#define LIBRA_SRC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/iosched/io_tag.h"
#include "src/iosched/scheduler.h"
#include "src/kv/storage_node.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace libra::workload {

// Request-size distribution: log-normal with byte mean/sigma; sigma 0 means
// a fixed size.
struct SizeSpec {
  double mean_bytes = 4096.0;
  double sigma_bytes = 0.0;
  uint64_t min_bytes = 1;
  uint64_t max_bytes = 1ULL * kMiB;
};

// --- raw IO (below the persistence engine) ---

struct RawIoSpec {
  double read_fraction = 0.5;   // per-op Bernoulli
  SizeSpec read_size;
  SizeSpec write_size;
  int workers = 4;
  uint64_t working_set_bytes = 1ULL * kGiB;
};

class RawIoWorkload {
 public:
  RawIoWorkload(sim::EventLoop& loop, iosched::IoScheduler& scheduler,
                iosched::TenantId tenant, RawIoSpec spec, uint64_t seed);

  // Spawns `spec.workers` backlogged workers into `group`, running until
  // `end_time`.
  void Start(sim::TaskGroup& group, SimTime end_time);

  uint64_t ops_completed() const { return ops_completed_; }

 private:
  sim::Task<void> Worker(SimTime end_time);

  sim::EventLoop& loop_;
  iosched::IoScheduler& scheduler_;
  iosched::TenantId tenant_;
  RawIoSpec spec_;
  Rng rng_;
  LogNormalSize read_dist_;
  LogNormalSize write_dist_;
  uint64_t ops_completed_ = 0;
};

// --- application-level KV (through the storage node) ---

struct KvWorkloadSpec {
  double get_fraction = 0.5;
  // Fraction of all requests that are range SCANs, carved off before the
  // GET/PUT split (so get_fraction then divides the remaining point ops).
  // 0 (the default) draws no extra randomness, keeping the historical
  // GET/PUT request stream byte-for-byte.
  double scan_fraction = 0.0;
  // Keys returned per SCAN (the limit): each scan starts at a uniformly
  // drawn GET-range key and walks forward through the keyspace.
  int scan_span = 16;
  SizeSpec get_size;  // object sizes in the GET key range
  SizeSpec put_size;  // sizes written by PUTs
  // Fraction of GETs that probe keys inside the GET key range that were
  // never written (read misses). Miss keys sort between two live keys, so
  // they survive SSTable range pruning and exercise the bloom-filter path.
  // 0 (the default) draws no extra randomness, keeping the historical
  // GET/PUT request stream byte-for-byte.
  double get_absent_fraction = 0.0;
  // The preloaded object population is sized to hold ~this much live data.
  uint64_t live_bytes_target = 64ULL * kMiB;
  // Zipf skew for key popularity; 0 = uniform (the paper's default).
  double zipf_theta = 0.0;
  // Paper Fig. 2 (last workload) and Figs. 11/12: GETs read a pre-existing,
  // never-overwritten key range so GET object sizes are controlled by
  // get_size rather than by PUT churn.
  bool disjoint_get_range = true;
  int workers = 4;
  // Key namespace prefix: two workload harnesses driving the same tenant
  // with different prefixes maintain disjoint object populations.
  std::string key_prefix;
};

class KvTenantWorkload {
 public:
  KvTenantWorkload(sim::EventLoop& loop, kv::StorageNode& node,
                   iosched::TenantId tenant, KvWorkloadSpec spec,
                   uint64_t seed);

  // Populates the tenant's key ranges (runs to completion on the loop).
  sim::Task<void> Preload();

  // Spawns the closed-loop workers until `end_time`.
  void Start(sim::TaskGroup& group, SimTime end_time);

  uint64_t gets_done() const { return gets_done_; }
  uint64_t puts_done() const { return puts_done_; }
  uint64_t scans_done() const { return scans_done_; }
  iosched::TenantId tenant() const { return tenant_; }

 private:
  sim::Task<void> Worker(SimTime end_time);

  std::string GetKey(uint64_t index) const;
  std::string PutKey(uint64_t index) const;

  sim::EventLoop& loop_;
  kv::StorageNode& node_;
  iosched::TenantId tenant_;
  KvWorkloadSpec spec_;
  Rng rng_;
  std::unique_ptr<LogNormalSize> get_dist_;
  std::unique_ptr<LogNormalSize> put_dist_;
  std::unique_ptr<ZipfGenerator> zipf_;
  uint64_t get_keys_ = 0;
  uint64_t put_keys_ = 0;
  uint64_t gets_done_ = 0;
  uint64_t puts_done_ = 0;
  uint64_t scans_done_ = 0;
};

// Builds a value of `size` bytes with deterministic, key-derived contents
// (so correctness checks can recompute expectations).
std::string MakeValue(std::string_view key, uint64_t size);

}  // namespace libra::workload

#endif  // LIBRA_SRC_WORKLOAD_WORKLOAD_H_
