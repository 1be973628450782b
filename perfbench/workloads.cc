// The benchmark workloads. Each call runs one repetition in this process:
// set-up (device calibration, construction, tenant admission, preload), a
// measured phase stepped in fixed virtual slices, a drain, the correctness
// gate, and the metrics, derived from the harness's own request records and
// the program's public stats.
//
//   node_ingest          one StorageNode, write path under reservations
//   node_read_cached     one StorageNode, filtered and cached read path
//   cluster_tenants_rf2  16-node RF=2 Cluster on the MultiLoop engine,
//                        1000 open-loop tenants, one crash and restart

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/cluster/cluster.h"
#include "src/cluster/global_provisioner.h"
#include "src/kv/storage_node.h"
#include "src/sim/event_loop.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/calibration.h"

namespace libra::perfbench {
namespace {

using iosched::AppRequest;
using iosched::InternalOp;
using iosched::TenantId;

// Named counters summed over nodes; phases are differences of two bags.
using Bag = std::map<std::string, double>;

Bag operator-(Bag a, const Bag& b) {
  for (auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it != b.end()) {
      v -= it->second;
    }
  }
  return a;
}

void AddTo(Bag& a, const Bag& b) {
  for (const auto& [k, v] : b) {
    a[k] += v;
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A counter no node reported reads as 0.
double At(const Bag& b, const std::string& key) {
  const auto it = b.find(key);
  return it == b.end() ? 0.0 : it->second;
}

constexpr const char* kInternalNames[iosched::kNumInternalOps] = {
    "direct", "flush", "compact", "repl"};

// --- engine ---------------------------------------------------------------------

struct Engine {
  std::unique_ptr<sim::EventLoop> serial;
  std::unique_ptr<sim::MultiLoop> multi;

  sim::EventLoop& client() { return multi ? multi->loop(0) : *serial; }
  SimTime Now() { return client().Now(); }
  uint64_t RunUntil(SimTime t) {
    return multi ? multi->RunUntil(t) : serial->RunUntil(t);
  }
  uint64_t Run() { return multi ? multi->Run() : serial->Run(); }
  double epochs() const { return multi ? static_cast<double>(multi->epochs()) : 0.0; }
  double messages() const {
    return multi ? static_cast<double>(multi->messages_sent()) : 0.0;
  }
};

// --- client-side request records -----------------------------------------------

struct Client {
  LatencySamples get, put, scan;
  LatencySamples all;  // every request, whatever its class
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;  // OK and finished inside the measured window
  double norm = 0.0;       // normalized 1KB requests of those
  double put_bytes = 0.0;  // key + value bytes of PUTs among them
  SimTime window_end = 0;
  std::string first_error;

  // Latency runs from the request's due time to `now`. `what` describes
  // a failure; it is only called for one.
  template <typename Describe>
  void Done(AppRequest app, SimTime due, SimTime now, bool ok,
            uint64_t payload_bytes, uint64_t user_bytes, Describe what) {
    ++attempted;
    LatencySamples& s = app == AppRequest::kGet   ? get
                        : app == AppRequest::kPut ? put
                                                  : scan;
    if (!ok) {
      ++failed;
      s.AddFailure();
      all.AddFailure();
      if (first_error.empty()) {
        first_error = what();
      }
      return;
    }
    s.Add(now - due);
    all.Add(now - due);
    if (now <= window_end) {
      ++completed;
      norm += iosched::NormalizedRequests(payload_bytes);
      if (app == AppRequest::kPut) {
        put_bytes += static_cast<double>(user_bytes);
      }
    }
  }
};

// --- node-side counters from public stats ------------------------------------

void AddLsm(Bag& b, const lsm::LsmStats& s) {
  b["lsm_gets"] += static_cast<double>(s.gets);
  b["lsm_puts"] += static_cast<double>(s.puts);
  b["lsm_scans"] += static_cast<double>(s.scans);
  b["flushes"] += static_cast<double>(s.flushes);
  b["compactions"] += static_cast<double>(s.compactions);
  b["compact_bytes_written"] += static_cast<double>(s.compact_bytes_written);
  b["stall_ns"] += static_cast<double>(s.stall_ns);
  b["tables_probed"] += static_cast<double>(s.tables_probed);
  b["bloom_probes"] += static_cast<double>(s.bloom_probes);
  b["bloom_negatives"] += static_cast<double>(s.bloom_negatives);
  b["bloom_fp"] += static_cast<double>(s.bloom_false_positives);
  b["index_block_reads"] += static_cast<double>(s.index_block_reads);
  b["data_block_reads"] += static_cast<double>(s.data_block_reads);
  b["scan_keys"] += static_cast<double>(s.scan_keys);
}

Bag LsmCounters(kv::StorageNode& node) {
  Bag b;
  for (const TenantId t : node.tenants()) {
    if (const lsm::LsmDb* db = node.partition(t); db != nullptr) {
      AddLsm(b, db->stats());
    }
  }
  return b;
}

// Cheap per-slice counters (traced repetitions record their deltas).
Bag SliceCounters(kv::StorageNode& node) {
  const ssd::DeviceStats d = node.device().stats();
  return {{"dev_ops", static_cast<double>(d.reads_completed + d.writes_completed)},
          {"rounds", static_cast<double>(node.scheduler().rounds())},
          {"vops", node.tracker().total_vops()}};
}

Bag NodeCounters(kv::StorageNode& node) {
  Bag b = SliceCounters(node);
  const ssd::DeviceStats d = node.device().stats();
  b["dev_write_bytes"] = static_cast<double>(d.write_bytes);
  b["gc_pages_moved"] = static_cast<double>(d.gc_pages_moved);
  iosched::ResourceTracker& tr = node.tracker();
  for (const TenantId t : tr.tenants()) {
    for (int a = 0; a < iosched::kNumAppRequests; ++a) {
      for (int i = 0; i < iosched::kNumInternalOps; ++i) {
        for (const ssd::IoType type : {ssd::IoType::kRead, ssd::IoType::kWrite}) {
          b[std::string("vops_") + kInternalNames[i]] +=
              tr.VopsBy(t, static_cast<AppRequest>(a), static_cast<InternalOp>(i),
                        type);
        }
      }
    }
  }
  for (const TenantId t : node.tenants()) {
    const iosched::TenantLifecycleStats* lc = node.scheduler().lifecycle(t);
    for (int a = 0; lc != nullptr && a < iosched::kNumAppRequests; ++a) {
      for (int i = 0; i < iosched::kNumInternalOps; ++i) {
        if (const obs::IoClassStats* c = lc->of(static_cast<AppRequest>(a),
                                                static_cast<InternalOp>(i))) {
          b["sched_ops"] += static_cast<double>(c->ops);
          b["sched_chunks"] += static_cast<double>(c->chunks);
        }
      }
    }
  }
  AddTo(b, LsmCounters(node));
  if (const lsm::BlockCache* bc = node.block_cache(); bc != nullptr) {
    b["bcache_hits"] = static_cast<double>(bc->hits());
    b["bcache_misses"] = static_cast<double>(bc->misses());
    b["bcache_evictions"] = static_cast<double>(bc->evictions());
  }
  b["fs_files"] = static_cast<double>(node.filesystem().stats().files);
  return b;
}

// VOP conservation: the tracker's running total equals the sum of its
// per-(tenant, app, internal op, direction) charges, to 1e-9 relative (the
// two add the same charges in different orders).
bool VopsConserved(kv::StorageNode& node) {
  iosched::ResourceTracker& tr = node.tracker();
  double sum = 0.0;
  for (const TenantId t : tr.tenants()) {
    for (int a = 0; a < iosched::kNumAppRequests; ++a) {
      for (int i = 0; i < iosched::kNumInternalOps; ++i) {
        for (const ssd::IoType type : {ssd::IoType::kRead, ssd::IoType::kWrite}) {
          sum += tr.VopsBy(t, static_cast<AppRequest>(a),
                           static_cast<InternalOp>(i), type);
        }
      }
    }
  }
  const double total = tr.total_vops();
  return std::fabs(sum - total) <= 1e-9 * std::max(1.0, total);
}

// Merged scheduler lifecycle histograms (cumulative since construction).
struct Lifecycle {
  obs::IoClassStats get, put, flush, compact;

  void Add(kv::StorageNode& node) {
    for (const TenantId t : node.tenants()) {
      const iosched::TenantLifecycleStats* lc = node.scheduler().lifecycle(t);
      for (int a = 0; lc != nullptr && a < iosched::kNumAppRequests; ++a) {
        for (int i = 0; i < iosched::kNumInternalOps; ++i) {
          const obs::IoClassStats* c =
              lc->of(static_cast<AppRequest>(a), static_cast<InternalOp>(i));
          if (c == nullptr) {
            continue;
          }
          const auto op = static_cast<InternalOp>(i);
          if (op == InternalOp::kFlush) {
            flush.Merge(*c);
          } else if (op == InternalOp::kCompact) {
            compact.Merge(*c);
          } else if (op == InternalOp::kNone && a == static_cast<int>(AppRequest::kGet)) {
            get.Merge(*c);
          } else if (op == InternalOp::kNone && a == static_cast<int>(AppRequest::kPut)) {
            put.Merge(*c);
          }
        }
      }
    }
  }
};

double HistP99Ms(const obs::LatencyHistogram& h, const std::string& name,
                 RepResult& r) {
  if (h.count() == 0) {
    r.notes[name] = "no IO of this class";
    return 0.0;
  }
  std::string note;
  const double q = ChooseQuantile(h.count(), 0.99, &note);
  if (!note.empty()) {
    r.notes[name] = note;
  }
  return static_cast<double>(h.Percentile(q)) / 1e6;
}

// Provisioning audit and SLA monitor totals of one node.
void AddPolicy(kv::StorageNode& node, double* required, double* granted,
               double* violations) {
  for (const obs::AuditRecord& rec : node.policy().audit_log().records()) {
    for (const obs::AuditTenantEntry& e : rec.tenants) {
      *required += e.required_vops;
      *granted += e.granted_vops;
    }
  }
  const obs::SlaMonitor& sla = node.policy().sla();
  for (const uint32_t t : sla.tenants()) {
    *violations += static_cast<double>(sla.Of(t)->violations);
  }
}

// --- measured phase -------------------------------------------------------------

struct Phase {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t events = 0;
  std::vector<double> slice_wall_s;
};

// Steps [Now, t_end) in `slices` equal virtual slices. The slicing is the
// same traced or not, so both see one event schedule; a traced repetition
// also records a span per slice with the counter deltas it produced.
Phase RunMeasured(Engine& eng, SimTime t_end, int slices, Tracer& tracer,
                  const std::function<Bag()>& counters) {
  Phase p;
  const SimTime t0 = eng.Now();
  const Usage u0 = ReadUsage();
  const double w0 = WallNow();
  Bag prev = tracer.enabled() ? counters() : Bag{};
  const int parent = tracer.Begin("measure", t0);
  for (int s = 1; s <= slices; ++s) {
    const SimTime to = t0 + (t_end - t0) * s / slices;
    const double ws = WallNow();
    const int id = tracer.Begin("RunUntil", eng.Now(), parent);
    const uint64_t ev = eng.RunUntil(to);
    p.events += ev;
    p.slice_wall_s.push_back(WallNow() - ws);
    if (tracer.enabled()) {
      Bag now = counters();
      Bag d = now - prev;
      d["events"] = static_cast<double>(ev);
      tracer.End(id, eng.Now(), std::move(d));
      prev = std::move(now);
    }
  }
  tracer.End(parent, eng.Now());
  p.wall_s = WallNow() - w0;
  p.cpu_s = ReadUsage().cpu_s - u0.cpu_s;
  return p;
}

// --- metric derivation shared by the workloads -----------------------------------

void LatencyMetrics(const Client& c, RepResult& r) {
  auto record = [&r](const char* name, const LatencySamples& s, double p, bool tail) {
    std::string note;
    r.virt[name] = s.QuantileMs(p, tail, &note);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "n=%llu (%llu failed)%s%s",
                  static_cast<unsigned long long>(s.count()),
                  static_cast<unsigned long long>(s.failures()),
                  note.empty() ? "" : "; ", note.c_str());
    r.notes[name] = buf;
  };
  record("vreq_p99_ms", c.all, 0.99, true);
  record("vget_p50_ms", c.get, 0.5, false);
  record("vget_p99_ms", c.get, 0.99, true);
  record("vput_p50_ms", c.put, 0.5, false);
  record("vput_p99_ms", c.put, 0.99, true);
  record("vscan_p50_ms", c.scan, 0.5, false);
  record("vscan_p99_ms", c.scan, 0.99, true);
}

// Metrics every workload derives the same way. `d` holds the measured
// phase's counter deltas; `window` its virtual length.
void CommonMetrics(const Client& c, const Phase& ph, const Bag& d,
                   SimDuration window, RepResult& r) {
  r.attempted = c.attempted;
  r.failed = c.failed;
  r.completed = c.completed;
  r.measure_s = ph.wall_s;
  r.measure_cpu_s = ph.cpu_s;
  LatencyMetrics(c, r);
  r.virt["vget_mean_ms"] = c.get.MeanMs();
  r.virt["vtput_kreq_s"] = c.norm / ToSeconds(window) / 1000.0;
  r.virt["vops_per_kreq"] = Ratio(At(d, "vops"), c.norm / 1000.0);
  r.virt["failed_frac"] = Ratio(static_cast<double>(c.failed),
                                static_cast<double>(c.attempted));
  if (!c.first_error.empty()) {
    r.notes["failed_frac"] = "first failure: " + c.first_error;
  }

  const double events = static_cast<double>(ph.events);
  r.virt["sim.events_per_req"] = Ratio(events, static_cast<double>(c.completed));
  r.wall["sim.ns_per_event"] = Ratio(ph.wall_s * 1e9, events);
  r.wall["sim.slice_wall_ms_p50"] = QuantileOf(ph.slice_wall_s, 0.5, false, nullptr) * 1e3;
  std::string note;
  r.wall["sim.slice_wall_ms_p99"] = QuantileOf(ph.slice_wall_s, 0.99, true, &note) * 1e3;
  if (!note.empty()) {
    r.notes["sim.slice_wall_ms_p99"] = note;
  }

  r.virt["ssd.ops_per_req"] = Ratio(At(d, "dev_ops"), static_cast<double>(c.completed));
  r.virt["ssd.gc_pages_moved"] = At(d, "gc_pages_moved");
  r.virt["ssd.write_bytes_per_user_byte"] = Ratio(At(d, "dev_write_bytes"), c.put_bytes);

  r.virt["iosched.rounds_per_op"] = Ratio(At(d, "rounds"), At(d, "sched_ops"));
  r.virt["iosched.chunks_per_op"] = Ratio(At(d, "sched_chunks"), At(d, "sched_ops"));
  for (int i = 0; i < iosched::kNumInternalOps; ++i) {
    r.virt[std::string("iosched.vops_share.") + kInternalNames[i]] =
        Ratio(At(d, std::string("vops_") + kInternalNames[i]), At(d, "vops"));
  }

  r.virt["lsm.flushes"] = At(d, "flushes");
  r.virt["lsm.compactions"] = At(d, "compactions");
  r.virt["lsm.compact_bytes_per_user_byte"] = Ratio(At(d, "compact_bytes_written"), c.put_bytes);
  r.virt["lsm.stall_ms"] = At(d, "stall_ns") / 1e6;
  const double gets = At(d, "lsm_gets");
  r.virt["lsm.tables_probed_per_get"] = Ratio(At(d, "tables_probed"), gets);
  r.virt["lsm.bloom_negative_frac"] = Ratio(At(d, "bloom_negatives"), At(d, "bloom_probes"));
  r.virt["lsm.bloom_fp_rate"] =
      Ratio(At(d, "bloom_fp"), At(d, "bloom_fp") + At(d, "bloom_negatives"));
  r.virt["lsm.index_block_reads_per_get"] = Ratio(At(d, "index_block_reads"), gets);
  r.virt["lsm.data_block_reads_per_get"] = Ratio(At(d, "data_block_reads"), gets);
  const double lookups = At(d, "bcache_hits") + At(d, "bcache_misses");
  r.virt["lsm.bcache_hit_rate"] = Ratio(At(d, "bcache_hits"), lookups);
  r.virt["lsm.bcache_evictions_per_get"] = Ratio(At(d, "bcache_evictions"), gets);
  if (lookups == 0.0) {
    r.notes["lsm.bcache_hit_rate"] = "no block cache in this workload";
  }
  r.virt["lsm.scan_keys_per_scan"] = Ratio(At(d, "scan_keys"), At(d, "lsm_scans"));
}

void LifecycleMetrics(const Lifecycle& lc, RepResult& r) {
  r.virt["iosched.queue_wait_p99_ms.get"] =
      HistP99Ms(lc.get.queue_wait, "iosched.queue_wait_p99_ms.get", r);
  r.virt["iosched.queue_wait_p99_ms.put"] =
      HistP99Ms(lc.put.queue_wait, "iosched.queue_wait_p99_ms.put", r);
  r.virt["iosched.queue_wait_p99_ms.flush"] =
      HistP99Ms(lc.flush.queue_wait, "iosched.queue_wait_p99_ms.flush", r);
  r.virt["iosched.queue_wait_p99_ms.compact"] =
      HistP99Ms(lc.compact.queue_wait, "iosched.queue_wait_p99_ms.compact", r);
  r.virt["iosched.service_p99_ms.get"] =
      HistP99Ms(lc.get.service, "iosched.service_p99_ms.get", r);
  r.virt["iosched.service_p99_ms.put"] =
      HistP99Ms(lc.put.service, "iosched.service_p99_ms.put", r);
}

// Layer metrics a workload without that layer reports as 0, with the reason.
void NotApplicable(RepResult& r, const std::vector<std::string>& names,
                   const std::string& why) {
  for (const std::string& n : names) {
    r.virt[n] = 0.0;
    r.notes[n] = why;
  }
}

const std::vector<std::string> kClusterOnly = {
    "cluster.add_tenant_us_p50", "cluster.add_tenant_us_p99",
    "cluster.fanout_puts_per_put", "cluster.failover_gets",
    "cluster.catchup_keys", "cluster.catchup_mb", "cluster.repl_vops",
    "cluster.recovery_wall_s", "cluster.provisioner_resplits",
    "cluster.rebalances", "recovery_vms", "sim.epochs",
    "sim.events_per_epoch", "sim.us_per_epoch", "sim.messages_per_req"};

// --- single-node workloads ----------------------------------------------------------

// The paper's prototype node: Intel 320, exact cost model, no object
// cache, LSM defaults (4MB write buffers, one synced WAL write per PUT).
// Calibrates the device model first, as a deployment would.
kv::NodeOptions PrototypeOptions() {
  kv::NodeOptions opt;
  opt.device_profile = ssd::Intel320Profile();
  ssd::CalibrationOptions cal;
  cal.warmup = 300 * kMillisecond;
  cal.measure = 1 * kSecond;
  opt.calibration = ssd::Calibrate(opt.device_profile, cal);
  opt.cost_model = "exact";
  opt.enable_cache = false;
  opt.prefill_bytes = 0;  // the preload populates the FTL
  return opt;
}

struct TenantSpec {
  double get_frac = 0.5;
  double scan_frac = 0.0;
  double absent_frac = 0.0;  // GETs of never-written in-range keys
  double zipf_theta = 0.0;   // 0: uniform key popularity
  double get_mean = 4096, get_sigma = 1024;
  double put_mean = 4096, put_sigma = 1024;
  uint64_t put_max = 1 << 20;
  uint64_t get_keys = 1000;
  uint64_t put_keys = 1000;
  iosched::Reservation reservation;
};

// Client-side model of one tenant's keyspace on a node. GETs read a
// preloaded range that is never overwritten (keys g<even>; odd indices are
// absent in-range keys); PUTs overwrite a separate range (keys p<n>), one
// writer per key at a time, so the last acked version is the live one.
struct NodeTenant {
  TenantId id = 0;
  TenantSpec spec;
  Rng rng{0};
  std::unique_ptr<Zipf> zipf;
  std::vector<uint32_t> get_size;
  std::vector<uint32_t> put_size;
  std::vector<uint32_t> put_version;
  std::vector<uint8_t> put_busy;
  std::vector<uint8_t> put_unknown;  // a failed PUT left the value unknown
};

std::string GetKey(uint64_t i) { return IndexKey('g', 2 * i); }
std::string PutKey(uint64_t i) { return IndexKey('p', i); }

sim::Task<void> PreloadWorker(kv::StorageNode* node, NodeTenant* t, int w,
                              int workers, uint64_t* errors) {
  for (uint64_t i = w; i < t->spec.get_keys; i += workers) {
    const std::string key = GetKey(i);
    if (!(co_await node->Put(t->id, key, MakeValue(key, 0, t->get_size[i]))).ok()) {
      ++*errors;
    }
  }
  for (uint64_t i = w; i < t->spec.put_keys; i += workers) {
    const std::string key = PutKey(i);
    if (!(co_await node->Put(t->id, key, MakeValue(key, 0, t->put_size[i]))).ok()) {
      ++*errors;
    }
  }
}

sim::Task<void> NodeWorker(sim::EventLoop* loop, kv::StorageNode* node,
                           NodeTenant* t, Client* c, SimTime end) {
  const TenantSpec& s = t->spec;
  while (loop->Now() < end) {
    const SimTime due = loop->Now();
    const double u = t->rng.Uniform();
    if (u < s.scan_frac) {
      const uint64_t i = t->rng.Below(s.get_keys);
      constexpr size_t kSpan = 16;
      const lsm::LsmDb::ScanResult res =
          co_await node->Scan(t->id, GetKey(i), "h", kSpan);
      const size_t want = std::min<uint64_t>(kSpan, s.get_keys - i);
      bool ok = res.status.ok() && res.entries.size() == want;
      uint64_t bytes = 0;
      for (size_t j = 0; ok && j < want; ++j) {
        const std::string key = GetKey(i + j);
        ok = res.entries[j].first == key &&
             IsValue(res.entries[j].second, key, 0, t->get_size[i + j]);
        bytes += key.size() + res.entries[j].second.size();
      }
      c->Done(AppRequest::kScan, due, loop->Now(), ok, bytes, 0,
              [&] { return "scan from " + GetKey(i) + " returned wrong entries"; });
    } else if (u < s.scan_frac + s.get_frac) {
      const uint64_t i = t->zipf ? t->zipf->Draw(t->rng) : t->rng.Below(s.get_keys);
      const bool absent = s.absent_frac > 0.0 && t->rng.Uniform() < s.absent_frac;
      const std::string key = IndexKey('g', 2 * i + (absent ? 1 : 0));
      const Result<std::string> res = co_await node->Get(t->id, key);
      const bool ok = absent ? res.status().code() == StatusCode::kNotFound
                             : res.ok() && IsValue(res.value(), key, 0, t->get_size[i]);
      c->Done(AppRequest::kGet, due, loop->Now(), ok,
              absent ? 0 : res.value().size(), 0,
              [&] { return "get " + key + " read back wrong"; });
    } else {
      uint64_t i = t->rng.Below(s.put_keys);
      while (t->put_busy[i]) {
        i = t->rng.Below(s.put_keys);
      }
      t->put_busy[i] = 1;
      const uint32_t version = t->put_version[i] + 1;
      const auto size = static_cast<uint32_t>(
          t->rng.LogNormal(s.put_mean, s.put_sigma, 64, s.put_max));
      const std::string key = PutKey(i);
      const Status st = co_await node->Put(t->id, key, MakeValue(key, version, size));
      t->put_busy[i] = 0;
      if (st.ok()) {
        t->put_version[i] = version;
        t->put_size[i] = size;
      } else {
        t->put_unknown[i] = 1;
      }
      c->Done(AppRequest::kPut, due, loop->Now(), st.ok(), size, key.size() + size,
              [&] { return "put " + key + ": " + st.message(); });
    }
  }
}

// Reads back every PUT-range key whose last write was acked.
sim::Task<void> VerifyPuts(kv::StorageNode* node, NodeTenant* t, uint64_t* checked,
                           uint64_t* lost) {
  for (uint64_t i = 0; i < t->spec.put_keys; ++i) {
    if (t->put_unknown[i]) {
      continue;
    }
    const std::string key = PutKey(i);
    const Result<std::string> res = co_await node->Get(t->id, key);
    ++*checked;
    if (!res.ok() || !IsValue(res.value(), key, t->put_version[i], t->put_size[i])) {
      ++*lost;
    }
  }
}

struct NodeWorkload {
  std::vector<TenantSpec> tenants;
  kv::NodeOptions options;
  int workers = 8;
  SimDuration duration = 0;
};

RepResult RunNode(const RunConfig& cfg, Tracer& tracer, NodeWorkload wl) {
  RepResult r;
  Engine eng;
  eng.serial = std::make_unique<sim::EventLoop>();
  sim::EventLoop& loop = eng.client();

  const Usage before_node = ReadUsage();
  int span = tracer.Begin("StorageNode", 0);
  kv::StorageNode node(loop, wl.options);
  tracer.End(span, 0);

  std::vector<std::unique_ptr<NodeTenant>> tenants;
  std::vector<double> add_us;
  for (size_t k = 0; k < wl.tenants.size(); ++k) {
    auto t = std::make_unique<NodeTenant>();
    t->id = static_cast<TenantId>(k + 1);
    t->spec = wl.tenants[k];
    t->rng = Rng(Rng::Derive(cfg.seed, t->id));
    Rng sizes(Rng::Derive(cfg.seed, 1000 + t->id));
    for (uint64_t i = 0; i < t->spec.get_keys; ++i) {
      t->get_size.push_back(static_cast<uint32_t>(
          sizes.LogNormal(t->spec.get_mean, t->spec.get_sigma, 64, 1 << 20)));
    }
    for (uint64_t i = 0; i < t->spec.put_keys; ++i) {
      t->put_size.push_back(static_cast<uint32_t>(
          sizes.LogNormal(t->spec.put_mean, t->spec.put_sigma, 64, t->spec.put_max)));
    }
    t->put_version.assign(t->spec.put_keys, 0);
    t->put_busy.assign(t->spec.put_keys, 0);
    t->put_unknown.assign(t->spec.put_keys, 0);
    if (t->spec.zipf_theta > 0.0) {
      t->zipf = std::make_unique<Zipf>(t->spec.get_keys, t->spec.zipf_theta,
                                       Rng::Derive(cfg.seed, 2000 + t->id));
    }
    const double w0 = WallNow();
    span = tracer.Begin("StorageNode::AddTenant", loop.Now());
    const Status st = node.AddTenant(t->id, t->spec.reservation);
    tracer.End(span, loop.Now());
    add_us.push_back((WallNow() - w0) * 1e6);
    r.Check(st.ok(), "AddTenant " + std::to_string(t->id) + ": " + st.message());
    tenants.push_back(std::move(t));
  }

  span = tracer.Begin("preload", loop.Now());
  uint64_t preload_errors = 0;
  {
    sim::TaskGroup group(loop);
    for (auto& t : tenants) {
      for (int w = 0; w < wl.workers; ++w) {
        group.Spawn(PreloadWorker(&node, t.get(), w, wl.workers, &preload_errors));
      }
    }
    eng.Run();
  }
  tracer.End(span, loop.Now());
  r.Check(preload_errors == 0, "preload PUTs all succeed");
  const Usage after_setup = ReadUsage();

  // Measured phase: the policy reprovisions every second; closed-loop
  // workers stop issuing at t_end and the drain completes their last op.
  const SimTime t0 = loop.Now();
  const SimTime t_end = t0 + wl.duration;
  const Bag base = NodeCounters(node);
  Client client;
  client.window_end = t_end;
  node.Start();
  r.setup_s = WallNow() - cfg.process_start_s;
  if (cfg.setup_only) {
    ExitAfterSetup(r);
  }
  Phase ph;
  Bag end_counters;
  {
    sim::TaskGroup group(loop);
    for (auto& t : tenants) {
      for (int w = 0; w < wl.workers; ++w) {
        group.Spawn(NodeWorker(&loop, &node, t.get(), &client, t_end));
      }
    }
    ph = RunMeasured(eng, t_end, 1000, tracer, [&node] { return SliceCounters(node); });
    end_counters = NodeCounters(node);
    node.Stop();
    eng.Run();
  }
  const Bag d = end_counters - base;

  CommonMetrics(client, ph, d, wl.duration, r);
  Lifecycle lc;
  lc.Add(node);
  LifecycleMetrics(lc, r);
  const ssd::DeviceStats dev = node.device().stats();
  r.virt["ssd.write_amp"] = dev.write_amp;
  r.virt["ssd.avg_queue_depth"] = dev.avg_queue_depth;
  double required = 0.0, granted = 0.0, violations = 0.0;
  AddPolicy(node, &required, &granted, &violations);
  r.virt["iosched.granted_over_required"] = Ratio(granted, required);
  r.virt["sla_violations"] = violations;
  r.virt["fs.files_per_node"] = At(base, "fs_files");
  r.virt["kv.partitions"] = static_cast<double>(node.tenants().size());
  r.wall["kv.rss_kb_per_partition"] =
      (after_setup.maxrss_kb - before_node.maxrss_kb) / static_cast<double>(tenants.size());
  std::string note;
  r.wall["kv.add_tenant_us_p50"] = QuantileOf(add_us, 0.5, false, nullptr);
  r.wall["kv.add_tenant_us_p99"] = QuantileOf(add_us, 0.99, true, &note);
  if (!note.empty()) {
    r.notes["kv.add_tenant_us_p99"] = note;
  }
  NotApplicable(r, kClusterOnly, "single node on one EventLoop: no cluster, epochs or crash");

  if (tracer.enabled()) {
    span = tracer.Begin("StorageNode::Snapshot", loop.Now());
    const kv::NodeStats snap = node.Snapshot();
    tracer.End(span, loop.Now(), {{"tenants", static_cast<double>(snap.tenants.size())}});
  }

  // Correctness gate.
  uint64_t checked = 0, lost = 0;
  span = tracer.Begin("verify", loop.Now());
  {
    sim::TaskGroup group(loop);
    for (auto& t : tenants) {
      group.Spawn(VerifyPuts(&node, t.get(), &checked, &lost));
    }
    eng.Run();
  }
  tracer.End(span, loop.Now());
  r.Check(checked > 0 && lost == 0, "every acked PUT reads back its last value");
  r.Check(VopsConserved(node), "tracker total_vops equals its per-class charges");
  r.Check(client.failed == 0, "no request failed (" + client.first_error + ")");
  return r;
}

// --- cluster workload ------------------------------------------------------------------

constexpr int kClusterNodes = 16;
constexpr int kClusterTenants = 1000;
constexpr double kClusterReqPerSec = 10000.0;  // all tenants together
constexpr size_t kClusterValueBytes = 256;

// One open-loop tenant: Poisson arrivals; each request is a PUT of a fresh
// key or a GET of a uniformly chosen already-acked key.
struct ClusterTenant {
  TenantId id = 0;
  cluster::TenantHandle handle;
  Rng rng{0};
  double mean_gap_ns = 0.0;
  uint64_t next_key = 0;
  std::vector<uint64_t> acked;
  std::vector<SimTime> acked_at;
};

std::string ClusterKey(TenantId t, uint64_t k) {
  return "t" + std::to_string(t) + "k" + std::to_string(k);
}

sim::Task<void> ClusterRequest(sim::EventLoop* loop, ClusterTenant* t, Client* c,
                               SimTime due, bool is_put, uint64_t pick) {
  if (is_put) {
    const std::string key = ClusterKey(t->id, t->next_key);
    const uint64_t k = t->next_key++;
    const std::string value = MakeValue(key, 0, kClusterValueBytes);
    const Status st = co_await t->handle.Put(key, value);
    if (st.ok()) {
      t->acked.push_back(k);
      t->acked_at.push_back(loop->Now());
    }
    c->Done(AppRequest::kPut, due, loop->Now(), st.ok(), value.size(),
            key.size() + value.size(), [&] { return "put " + key + ": " + st.message(); });
  } else {
    const std::string key = ClusterKey(t->id, t->acked[pick % t->acked.size()]);
    const Result<std::string> res = co_await t->handle.Get(key);
    const bool ok = res.ok() && IsValue(res.value(), key, 0, kClusterValueBytes);
    c->Done(AppRequest::kGet, due, loop->Now(), ok, kClusterValueBytes, 0, [&] {
      return "get " + key + ": " + (res.ok() ? "wrong value" : res.status().message());
    });
  }
}

sim::Task<void> ClusterClient(sim::EventLoop* loop, sim::TaskGroup* group,
                              ClusterTenant* t, Client* c, SimTime end) {
  SimTime next = loop->Now() + 1 + static_cast<SimTime>(t->rng.Exponential(t->mean_gap_ns));
  while (next < end) {
    co_await sim::SleepUntil(*loop, next);
    const bool is_put = t->acked.empty() || t->rng.Uniform() < 0.5;
    group->Spawn(ClusterRequest(loop, t, c, next, is_put, t->rng.Next()));
    next += 1 + static_cast<SimTime>(t->rng.Exponential(t->mean_gap_ns));
  }
}

sim::Task<void> VerifyAcked(ClusterTenant* t, SimTime before, uint64_t* checked,
                            uint64_t* lost) {
  for (size_t i = 0; i < t->acked.size() && t->acked_at[i] < before; ++i) {
    const std::string key = ClusterKey(t->id, t->acked[i]);
    const Result<std::string> res = co_await t->handle.Get(key);
    ++*checked;
    if (!res.ok() || !IsValue(res.value(), key, 0, kClusterValueBytes)) {
      ++*lost;
    }
  }
}

struct Recovery {
  Status status = Status::Unavailable("restart never ran");
  SimTime vt_start = 0, vt_end = 0;
  double wall_s = 0.0;
};

sim::Task<void> RestartAndTime(sim::EventLoop* loop, cluster::Cluster* cl, int node,
                               Tracer* tracer, Recovery* out) {
  out->vt_start = loop->Now();
  const double w0 = WallNow();
  const int span = tracer->Begin("Cluster::RestartNode", loop->Now());
  out->status = co_await cl->RestartNode(node);
  tracer->End(span, loop->Now());
  out->wall_s = WallNow() - w0;
  out->vt_end = loop->Now();
}

}  // namespace

RepResult RunNodeIngest(const RunConfig& cfg, Tracer& tracer) {
  NodeWorkload wl;
  int span = tracer.Begin("calibrate", 0);
  wl.options = PrototypeOptions();
  tracer.End(span, 0);
  wl.duration = 10 * kSecond;
  // Reservations (normalized 1KB requests/s) price to ~0.9 of the node's
  // 18k VOP/s floor under the observed amplified profiles.
  for (int k = 0; k < 4; ++k) {
    TenantSpec s;  // write-heavy: 10:90, log-normal ~64KB PUTs
    s.get_frac = 0.1;
    s.put_mean = 64 * 1024;
    s.put_sigma = 48 * 1024;
    s.put_max = 512 * 1024;
    s.get_keys = 1000;
    s.put_keys = 12 * kMiB / (64 * 1024);  // 3x the 4MB write buffer
    s.reservation = iosched::Reservation{65.0, 1600.0};
    wl.tenants.push_back(s);
  }
  for (int k = 0; k < 4; ++k) {
    TenantSpec s;  // mixed: 50:50, 4KB GETs, 16KB PUTs
    s.get_frac = 0.5;
    s.put_mean = 16 * 1024;
    s.put_sigma = 4 * 1024;
    s.get_keys = 1000;
    s.put_keys = 12 * kMiB / (16 * 1024);
    s.reservation = iosched::Reservation{650.0, 1600.0};
    wl.tenants.push_back(s);
  }
  return RunNode(cfg, tracer, wl);
}

RepResult RunNodeReadCached(const RunConfig& cfg, Tracer& tracer) {
  NodeWorkload wl;
  int span = tracer.Begin("calibrate", 0);
  wl.options = PrototypeOptions();
  tracer.End(span, 0);
  wl.options.lsm_options.bloom_bits_per_key = 10;
  wl.options.lsm_options.block_cache_bytes = 16 * kMiB;  // ~1/4 of live data
  wl.duration = 3 * kSecond;
  for (int k = 0; k < 4; ++k) {
    TenantSpec s;
    s.scan_frac = 0.05;
    s.get_frac = 0.90;
    s.absent_frac = 0.2;
    s.zipf_theta = 0.99;
    s.get_mean = 1024;
    s.get_sigma = 256;
    s.put_mean = 1024;
    s.put_sigma = 256;
    s.get_keys = 16 * 1024;  // ~16MB per tenant, ~64MB live in all
    s.put_keys = 1024;
    s.reservation = iosched::Reservation{2000.0, 100.0, 200.0};
    wl.tenants.push_back(s);
  }
  return RunNode(cfg, tracer, wl);
}

RepResult RunClusterTenants(const RunConfig& cfg, Tracer& tracer) {
  RepResult r;
  constexpr SimDuration kRpc = 50 * kMicrosecond;
  Engine eng;

  int span = tracer.Begin("calibrate", 0);
  cluster::ClusterOptions copt;
  copt.node_options = PrototypeOptions();
  tracer.End(span, 0);

  const Usage before_cluster = ReadUsage();
  span = tracer.Begin("Cluster", 0);
  sim::MultiLoopOptions mopt;
  mopt.threads = cfg.threads;
  mopt.lookahead = kRpc;
  eng.multi = std::make_unique<sim::MultiLoop>(kClusterNodes + 1, mopt);
  copt.num_nodes = kClusterNodes;
  copt.shards_per_tenant = 8;
  copt.replication_factor = 2;
  copt.admission_enabled = false;
  copt.rpc_latency = kRpc;
  copt.retry.max_retries = 16;
  copt.retry.initial_backoff = 1 * kMillisecond;
  copt.retry.backoff_multiplier = 2.0;
  copt.retry.deadline = 2 * kSecond;
  cluster::Cluster cl(*eng.multi, copt);
  tracer.End(span, 0);
  sim::EventLoop& loop = eng.client();

  // Zipf(0.5)-skewed offered rates over a seeded tenant order.
  std::vector<double> weight(kClusterTenants);
  double weight_sum = 0.0;
  for (int k = 0; k < kClusterTenants; ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), 0.5);
    weight_sum += weight[k];
  }
  Rng shuffle(Rng::Derive(cfg.seed, 4));
  for (int k = kClusterTenants; k > 1; --k) {
    std::swap(weight[k - 1], weight[shuffle.Below(k)]);
  }

  std::vector<std::unique_ptr<ClusterTenant>> tenants;
  std::vector<double> add_us;
  for (int k = 0; k < kClusterTenants; ++k) {
    auto t = std::make_unique<ClusterTenant>();
    t->id = static_cast<TenantId>(k + 1);
    t->rng = Rng(Rng::Derive(cfg.seed, t->id));
    t->mean_gap_ns = 1e9 / (kClusterReqPerSec * weight[k] / weight_sum);
    const double w0 = WallNow();
    span = tracer.Begin("Cluster::AddTenant", loop.Now());
    Result<cluster::TenantHandle> h =
        cl.AddTenant(t->id, cluster::GlobalReservation{20.0, 10.0});
    tracer.End(span, loop.Now());
    add_us.push_back((WallNow() - w0) * 1e6);
    r.Check(h.ok(), "AddTenant " + std::to_string(t->id) + ": " + h.status().message());
    t->handle = h.value();
    tenants.push_back(std::move(t));
  }
  // The parallel engine creates the partitions (StorageNode::AddTenant,
  // LsmDb::Open) when it delivers the admission messages.
  span = tracer.Begin("open_partitions", loop.Now());
  const double open_w0 = WallNow();
  eng.Run();
  const double open_s = WallNow() - open_w0;
  tracer.End(span, loop.Now());
  const Usage after_setup = ReadUsage();

  const SimTime t0 = loop.Now();
  const SimTime t_crash = t0 + 1 * kSecond;
  const SimTime t_restart = t_crash + 1 * kSecond;
  const SimTime t_end = t0 + 8 * kSecond;
  Rng fault(Rng::Derive(cfg.seed, 5));
  const int victim = static_cast<int>(fault.Below(kClusterNodes));
  r.notes["victim"] = "node " + std::to_string(victim);

  auto counters = [&cl] {
    Bag b;
    for (int n = 0; n < cl.num_nodes(); ++n) {
      AddTo(b, NodeCounters(cl.node(n)));
    }
    return b;
  };
  auto slice_counters = [&cl, &eng] {
    Bag b;
    for (int n = 0; n < cl.num_nodes(); ++n) {
      AddTo(b, SliceCounters(cl.node(n)));
    }
    b["epochs"] = eng.epochs();
    b["messages"] = eng.messages();
    return b;
  };
  const Bag base = counters();
  const double splits0 = static_cast<double>(cl.provisioner().splits_applied());
  const double migrations0 = static_cast<double>(cl.provisioner().migrations_started());
  const double epochs0 = eng.epochs();
  const double messages0 = eng.messages();

  // A restarted node's partitions start fresh LsmStats: carry the victim's
  // pre-crash counts so phase deltas stay whole.
  Bag carried;
  Status crash_status = Status::Unavailable("crash never ran");
  eng.multi->ScheduleBarrierAt(t_crash, [&] {
    carried = LsmCounters(cl.node(victim));
    const int s = tracer.Begin("Cluster::CrashNode", t_crash);
    crash_status = cl.CrashNode(victim);
    tracer.End(s, t_crash);
  });
  Recovery rec;
  sim::TaskGroup control(loop);
  loop.ScheduleAt(t_restart, [&] {
    control.Spawn(RestartAndTime(&loop, &cl, victim, &tracer, &rec));
  });

  Client client;
  client.window_end = t_end;
  cl.Start();
  r.setup_s = WallNow() - cfg.process_start_s;
  if (cfg.setup_only) {
    ExitAfterSetup(r);
  }
  Phase ph;
  Bag end_counters;
  double epochs1 = 0.0, messages1 = 0.0;
  {
    sim::TaskGroup group(loop);
    for (auto& t : tenants) {
      group.Spawn(ClusterClient(&loop, &group, t.get(), &client, t_end));
    }
    ph = RunMeasured(eng, t_end, 1000, tracer, slice_counters);
    end_counters = counters();
    AddTo(end_counters, carried);
    epochs1 = eng.epochs();
    messages1 = eng.messages();
    cl.Stop();
    eng.Run();
  }
  const Bag d = end_counters - base;

  CommonMetrics(client, ph, d, t_end - t0, r);
  Lifecycle lc;
  double write_amp = 0.0, queue_depth = 0.0, required = 0.0, granted = 0.0,
         violations = 0.0, partitions = 0.0;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    kv::StorageNode& node = cl.node(n);
    lc.Add(node);
    const ssd::DeviceStats dev = node.device().stats();
    write_amp += dev.write_amp / kClusterNodes;
    queue_depth += dev.avg_queue_depth / kClusterNodes;
    AddPolicy(node, &required, &granted, &violations);
    partitions += static_cast<double>(node.tenants().size());
  }
  LifecycleMetrics(lc, r);
  r.virt["ssd.write_amp"] = write_amp;
  r.virt["ssd.avg_queue_depth"] = queue_depth;
  r.virt["iosched.granted_over_required"] = Ratio(granted, required);
  r.virt["sla_violations"] = violations;
  r.virt["fs.files_per_node"] = At(base, "fs_files") / kClusterNodes;
  r.virt["kv.partitions"] = partitions;
  r.wall["kv.rss_kb_per_partition"] =
      (after_setup.maxrss_kb - before_cluster.maxrss_kb) / partitions;
  NotApplicable(r, {"kv.add_tenant_us_p50", "kv.add_tenant_us_p99"},
                "the parallel engine runs StorageNode::AddTenant inside its "
                "first epoch, out of the harness's reach");
  char open_note[128];
  std::snprintf(open_note, sizeof(open_note),
                "first engine drain opened %.0f partitions in %.3f s (%.1f us each)",
                partitions, open_s, open_s * 1e6 / partitions);
  r.notes["open_partitions"] = open_note;

  std::string note;
  r.wall["cluster.add_tenant_us_p50"] = QuantileOf(add_us, 0.5, false, nullptr);
  r.wall["cluster.add_tenant_us_p99"] = QuantileOf(add_us, 0.99, true, &note);
  if (!note.empty()) {
    r.notes["cluster.add_tenant_us_p99"] = note;
  }
  const double epochs = epochs1 - epochs0;
  r.virt["sim.epochs"] = epochs;
  r.virt["sim.events_per_epoch"] = Ratio(static_cast<double>(ph.events), epochs);
  r.wall["sim.us_per_epoch"] = Ratio(ph.wall_s * 1e6, epochs);
  r.virt["sim.messages_per_req"] =
      Ratio(messages1 - messages0, static_cast<double>(client.completed));
  r.virt["cluster.repl_vops"] = At(d, "vops_repl");
  r.virt["cluster.provisioner_resplits"] =
      static_cast<double>(cl.provisioner().splits_applied()) - splits0;
  r.virt["cluster.rebalances"] =
      static_cast<double>(cl.provisioner().migrations_started()) - migrations0;
  r.virt["recovery_vms"] = static_cast<double>(rec.vt_end - rec.vt_start) / 1e6;
  r.wall["cluster.recovery_wall_s"] = rec.wall_s;

  // Replication traffic is only visible through Cluster::Snapshot, which
  // copies every partition's histograms: traced repetitions only.
  if (tracer.enabled()) {
    span = tracer.Begin("Cluster::Snapshot", loop.Now());
    const cluster::ClusterStats snap = cl.Snapshot();
    tracer.End(span, loop.Now());
    double fanout = 0.0, failover = 0.0, keys = 0.0, bytes = 0.0;
    for (const kv::NodeStats& ns : snap.nodes) {
      fanout += static_cast<double>(ns.replication.fanout_puts);
      failover += static_cast<double>(ns.replication.failover_gets);
      keys += static_cast<double>(ns.replication.catchup_keys);
      bytes += static_cast<double>(ns.replication.catchup_bytes);
    }
    const double puts = static_cast<double>(client.put.count() - client.put.failures());
    r.virt["cluster.fanout_puts_per_put"] = Ratio(fanout, puts);
    r.virt["cluster.failover_gets"] = failover;
    r.virt["cluster.catchup_keys"] = keys;
    r.virt["cluster.catchup_mb"] = bytes / 1e6;
  }
  NotApplicable(r, {"vscan_p50_ms", "vscan_p99_ms"}, "no scans in this workload");

  // Correctness gate.
  uint64_t checked = 0, lost = 0;
  span = tracer.Begin("verify", loop.Now());
  {
    sim::TaskGroup group(loop);
    for (auto& t : tenants) {
      group.Spawn(VerifyAcked(t.get(), t_crash, &checked, &lost));
    }
    eng.Run();
  }
  tracer.End(span, loop.Now());
  r.Check(crash_status.ok(), "CrashNode: " + crash_status.message());
  r.Check(rec.status.ok(), "RestartNode and catch-up: " + rec.status.message());
  r.Check(cl.NodeAlive(victim) && !cl.NodeSyncing(victim),
          "victim alive and synced after the run");
  r.Check(checked > 0 && lost == 0, "every write acked before the crash reads back");
  for (int n = 0; n < cl.num_nodes(); ++n) {
    r.Check(VopsConserved(cl.node(n)),
            "node " + std::to_string(n) + " tracker total_vops equals its per-class charges");
  }
  r.Check(client.failed == 0, "no request failed (" + client.first_error + ")");
  return r;
}

}  // namespace libra::perfbench
