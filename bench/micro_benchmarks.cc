// Microbenchmarks (google-benchmark): per-operation cost of the hot paths.
// The DRR scheduling decision is O(1) (the paper's argument against
// virtual-time fair queuing's O(log n)); cost-model evaluation, skiplist
// and event loop costs bound the simulator's wall-clock throughput.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/fs/sim_fs.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/kv/storage_node.h"
#include "src/lsm/block_cache.h"
#include "src/lsm/db.h"
#include "src/lsm/format.h"
#include "src/lsm/memtable.h"
#include "src/lsm/wal.h"
#include "src/obs/histogram.h"
#include "src/sim/event_loop.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/device.h"
#include "src/ssd/ftl.h"
#include "src/ssd/profile.h"

namespace libra {
namespace {

ssd::CalibrationTable MicroTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

void BM_EventLoopScheduleDispatch(benchmark::State& state) {
  sim::EventLoop loop;
  int sink = 0;
  for (auto _ : state) {
    loop.ScheduleAfter(10, [&sink] { ++sink; });
    loop.RunOne();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventLoopScheduleDispatch);

void BM_CostModelExact(benchmark::State& state) {
  iosched::ExactCostModel model(MicroTable());
  Rng rng(1);
  for (auto _ : state) {
    const uint32_t size = static_cast<uint32_t>(1024 + rng.NextU64(255 * 1024));
    benchmark::DoNotOptimize(model.Cost(ssd::IoType::kRead, size));
  }
}
BENCHMARK(BM_CostModelExact);

void BM_CostModelFitted(benchmark::State& state) {
  iosched::FittedCostModel model(MicroTable());
  Rng rng(1);
  for (auto _ : state) {
    const uint32_t size = static_cast<uint32_t>(1024 + rng.NextU64(255 * 1024));
    benchmark::DoNotOptimize(model.Cost(ssd::IoType::kWrite, size));
  }
}
BENCHMARK(BM_CostModelFitted);

// One full scheduler round trip per iteration: submit + dispatch + device
// completion — the paper's "constant time" scheduling claim. Reads rotate
// over `active` of `registered` tenants (every registered/active-th id);
// the rest stay registered and idle. Per-op cost should stay ~flat in both.
// Tags carry the tenant's slot, as a node's requests do.
void SchedulerRoundTrip(benchmark::State& state, int registered, int active) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(256 * kMiB);
  iosched::IoScheduler sched(loop, device,
                             std::make_unique<iosched::ExactCostModel>(MicroTable()));
  std::vector<iosched::TenantSlot> slot_of(registered);
  for (int t = 0; t < registered; ++t) {
    slot_of[t] = sched.slots().Assign(static_cast<iosched::TenantId>(t));
    sched.SetAllocation(slot_of[t], 1000.0);
  }
  const int stride = registered / active;
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    const int t = static_cast<int>(i++ % active) * stride;
    const iosched::IoTag tag{.tenant = static_cast<iosched::TenantId>(t),
                             .app = iosched::AppRequest::kGet,
                             .slot = slot_of[t]};
    sim::Detach([](iosched::IoScheduler& s, iosched::IoTag tag,
                   uint64_t off) -> sim::Task<void> {
      co_await s.Read(tag, off, 4096);
    }(sched, tag, rng.NextU64(50000) * 4096));
    loop.Run();
  }
  state.SetItemsProcessed(state.iterations());
}

// Tenant count is the argument; every registered tenant is active.
void BM_SchedulerRoundTrip(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  SchedulerRoundTrip(state, tenants, tenants);
}
BENCHMARK(BM_SchedulerRoundTrip)->Arg(1)->Arg(8)->Arg(64);

// Arguments (registered, active): many partitions on a node, few busy.
void BM_SchedulerRoundTripIdle(benchmark::State& state) {
  SchedulerRoundTrip(state, static_cast<int>(state.range(0)),
                     static_cast<int>(state.range(1)));
}
BENCHMARK(BM_SchedulerRoundTripIdle)
    ->Name("BM_SchedulerRoundTrip")
    ->Args({1024, 8});

// Memtable entries view their bytes (in a node, the WAL's): the keys live
// in a deque, whose elements never move.
void BM_SkiplistInsert(benchmark::State& state) {
  lsm::MemTable mt;
  std::deque<std::string> keys;
  Rng rng(5);
  lsm::SequenceNumber seq = 0;
  char key[32];
  for (auto _ : state) {
    std::snprintf(key, sizeof(key), "key%012llu",
                  static_cast<unsigned long long>(rng.NextU64(1u << 20)));
    keys.emplace_back(key);
    mt.Add({keys.back(), "value", ++seq, lsm::ValueType::kPut}, nullptr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkiplistInsert);

void BM_MemtableGet(benchmark::State& state) {
  lsm::MemTable mt;
  std::deque<std::string> keys;
  Rng rng(5);
  char key[32];
  for (int i = 0; i < 100000; ++i) {
    std::snprintf(key, sizeof(key), "key%012d", i);
    keys.emplace_back(key);
    mt.Add({keys.back(), "value", static_cast<lsm::SequenceNumber>(i + 1),
            lsm::ValueType::kPut},
           nullptr);
  }
  for (auto _ : state) {
    std::snprintf(key, sizeof(key), "key%012llu",
                  static_cast<unsigned long long>(rng.NextU64(100000)));
    benchmark::DoNotOptimize(mt.Get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemtableGet);

// One bloom probe per iteration against a filter block sized like a flushed
// SSTable's (4K keys at 10 bits/key, ~5KiB). Half the probes are keys in
// the filter, half are misses — the mix the filtered GET path sees on the
// read-miss traffic the filters exist for. This is the per-GET CPU cost
// added to every table visit, so it must stay tens of nanoseconds.
void BM_BloomProbe(benchmark::State& state) {
  constexpr int kKeys = 4096;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  char buf[32];
  for (int i = 0; i < kKeys; ++i) {
    std::snprintf(buf, sizeof(buf), "key%012d", i);
    keys.emplace_back(buf);
  }
  std::string filter;
  lsm::BloomFilterBuild(keys, 10, &filter);
  Rng rng(13);
  uint64_t maybe = 0;
  for (auto _ : state) {
    const uint64_t i = rng.NextU64(2 * kKeys);
    std::snprintf(buf, sizeof(buf), "key%012llu",
                  static_cast<unsigned long long>(i));
    maybe += lsm::BloomFilterMayContain(filter, buf) ? 1 : 0;
  }
  benchmark::DoNotOptimize(maybe);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

// One shared-block-cache hit per iteration: the slot check + LRU splice
// that replaces a device read on the cached GET path. The cache holds a
// working set of data blocks across several tenants/tables, all resident
// (no evictions inside the timed loop) — this is the pure hit cost.
void BM_BlockCacheGet(benchmark::State& state) {
  constexpr int kTenants = 4;
  constexpr int kTables = 16;
  constexpr int kBlocks = 8;
  constexpr uint64_t kBlockBytes = 4096;
  lsm::BlockCache cache(/*capacity_bytes=*/0, /*cache_data=*/true);
  // The stored table bytes the cached blocks view, and each reader's data
  // block slots: slots[tenant][table * kBlocks + block].
  const std::string table_bytes(kBlocks * kBlockBytes, 'd');
  std::vector<std::vector<lsm::BlockCache::Slot>> slots;
  std::vector<lsm::BlockCache::TenantCounters*> counters;
  slots.reserve(kTenants);
  for (int t = 1; t <= kTenants; ++t) {
    counters.push_back(&cache.Counters(static_cast<iosched::TenantSlot>(t)));
    slots.emplace_back(kTables * kBlocks);
    for (int f = 0; f < kTables; ++f) {
      for (int b = 0; b < kBlocks; ++b) {
        const std::string_view block =
            std::string_view(table_bytes).substr(b * kBlockBytes, kBlockBytes);
        cache.Insert(slots.back()[f * kBlocks + b], *counters.back(), block);
      }
    }
  }
  Rng rng(17);
  uint64_t hits = 0;
  for (auto _ : state) {
    const uint64_t tenant = rng.NextU64(kTenants);
    const uint64_t table = rng.NextU64(kTables);
    const uint64_t block = rng.NextU64(kBlocks);
    hits += cache.Get(slots[tenant][table * kBlocks + block],
                      lsm::BlockCache::Kind::kData, *counters[tenant]);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
  for (auto& reader_slots : slots) {
    for (lsm::BlockCache::Slot& slot : reader_slots) {
      cache.Erase(slot);
    }
  }
}
BENCHMARK(BM_BlockCacheGet);

void BM_Crc32_4K(benchmark::State& state) {
  const std::string data(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsm::Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Crc32_4K);

void BM_DeviceSubmitComplete(benchmark::State& state) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(256 * kMiB);
  Rng rng(7);
  for (auto _ : state) {
    device.Submit({ssd::IoType::kWrite, rng.NextU64(50000) * 4096, 4096},
                  [] {});
    loop.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceSubmitComplete);

// --- FTL --------------------------------------------------------------------

// One random 4 KiB host write per iteration on a default-profile FTL (4 GiB
// logical) that is first written end to end and then churned until greedy
// GC has erased a block, so every timed write pays the map lookups,
// invalidation and its share of relocation. The iteration count is fixed
// so every run replays the same seeded writes; counter write_amp covers the
// timed writes only.
void BM_FtlWrite(benchmark::State& state) {
  const ssd::DeviceProfile profile = ssd::Intel320Profile();
  const uint64_t pages = profile.logical_pages();
  ssd::Ftl ftl(profile);
  for (uint64_t lpn = 0; lpn < pages; lpn += profile.pages_per_block) {
    ftl.Write(lpn, profile.pages_per_block);
  }
  Rng rng(5);
  while (ftl.blocks_erased() == 0) {
    ftl.Write(rng.NextU64(pages), 1);
  }
  const uint64_t host0 = ftl.host_pages_written();
  const uint64_t moved0 = ftl.gc_pages_moved();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.Write(rng.NextU64(pages), 1));
  }
  const double host = static_cast<double>(ftl.host_pages_written() - host0);
  state.counters["write_amp"] =
      (host + static_cast<double>(ftl.gc_pages_moved() - moved0)) / host;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FtlWrite)->Iterations(1 << 20);

// Building a default-profile FTL: what every simulated device pays before
// its first IO. Counter map_bytes = map storage held after construction.
void BM_FtlConstruct(benchmark::State& state) {
  const ssd::DeviceProfile profile = ssd::Intel320Profile();
  double map_bytes = 0;
  for (auto _ : state) {
    const ssd::Ftl ftl(profile);
    benchmark::DoNotOptimize(ftl.free_blocks(0));
    map_bytes = static_cast<double>(ftl.map_bytes());
  }
  state.counters["map_bytes"] = map_bytes;
}
BENCHMARK(BM_FtlConstruct)->Unit(benchmark::kMicrosecond);

// One group-commit cycle per iteration: `qd` concurrent WAL appends
// submitted together, drained to completion. qd=1 is the degenerate
// no-batching case; 8 and 32 measure the leader/follower machinery under
// the queue depths the demos use. The simulated-time IOP savings are
// covered by tests; this tracks the wall-clock cost of the batching code
// itself (queueing, manifest build, per-record completion fan-out).
void BM_WalGroupCommit(benchmark::State& state) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(256 * kMiB);
  iosched::IoScheduler sched(
      loop, device, std::make_unique<iosched::ExactCostModel>(MicroTable()));
  sched.SetAllocation(1, 100000.0);
  fs::SimFs fs(sched, device);
  lsm::WalOptions wopt;
  wopt.group_commit = true;
  const int qd = static_cast<int>(state.range(0));
  const iosched::IoTag tag{.tenant = 1, .app = iosched::AppRequest::kPut};
  std::unique_ptr<lsm::WriteAheadLog> wal;
  uint64_t wal_number = 0;
  uint64_t records = 0;
  auto roll_wal = [&] {
    if (wal != nullptr) {
      (void)wal->Remove();
    }
    wal = std::make_unique<lsm::WriteAheadLog>(
        fs, "bench_wal_" + std::to_string(++wal_number), wopt);
    if (!wal->Open().ok()) {
      state.SkipWithError("wal open failed");
    }
  };
  roll_wal();
  lsm::SequenceNumber seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < qd; ++i) {
      sim::Detach([](lsm::WriteAheadLog* w, iosched::IoTag t,
                     lsm::SequenceNumber s) -> sim::Task<void> {
        co_await w->Append(t, "key", s, lsm::ValueType::kPut, "value");
      }(wal.get(), tag, ++seq));
    }
    loop.Run();
    records += static_cast<uint64_t>(qd);
    if (records % 16384 == 0) {
      roll_wal();  // keep the backing SimFs file bounded
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * qd);
}
BENCHMARK(BM_WalGroupCommit)->Arg(1)->Arg(8)->Arg(32);

// One bounded range scan per iteration through the LSM k-way merge path.
// Table layout (BM_ScanMerge/<limit>): the window overlaps the memtable and
// several flushed tables, so every scan exercises cursor seeding, heap
// merging, newest-version-wins dedup, and tombstone shadowing (every 7th
// key is deleted). Memtable layout (BM_ScanMerge/memtable/<limit>): every
// key sits in one large unflushed memtable with 1 KB values, so a scan
// must cost O(limit), not O(memtable). Arg = scan limit in keys; items =
// live entries returned.
void BM_ScanMerge(benchmark::State& state, bool memtable_resident) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(256 * kMiB);
  iosched::IoScheduler sched(
      loop, device, std::make_unique<iosched::ExactCostModel>(MicroTable()));
  sched.SetAllocation(1, 100000.0);
  fs::SimFs fs(sched, device);
  lsm::LsmOptions opt;
  // Many small tables in the merge, or one memtable holding everything.
  opt.write_buffer_bytes = memtable_resident ? 64 * kMiB : 64 * 1024;
  lsm::LsmDb db(loop, fs, sched, 1, "bench_scan", opt);
  if (!db.Open().ok()) {
    state.SkipWithError("lsm open failed");
    return;
  }
  const size_t value_bytes = memtable_resident ? 1024 : 128;
  sim::Detach([](lsm::LsmDb* d, size_t vbytes) -> sim::Task<void> {
    char k[32];
    for (int i = 0; i < 4096; ++i) {
      std::snprintf(k, sizeof(k), "key%06d", i);
      co_await d->Put(k, std::string(vbytes, 'v'));
      if (i % 7 == 0) {
        co_await d->Delete(k);
      }
    }
    co_await d->WaitIdle();
  }(&db, value_bytes));
  loop.Run();
  if (memtable_resident && db.stats().flushes != 0) {
    state.SkipWithError("memtable layout flushed");
    return;
  }
  const int span = static_cast<int>(state.range(0));
  Rng rng(11);
  char key[32];
  uint64_t returned = 0;
  for (auto _ : state) {
    const int start = static_cast<int>(rng.NextU64(4096 - span));
    std::snprintf(key, sizeof(key), "key%06d", start);
    sim::Detach([](lsm::LsmDb* d, std::string s, size_t lim,
                   uint64_t* out) -> sim::Task<void> {
      const lsm::LsmDb::ScanResult r = co_await d->Scan(s, "", lim);
      *out += r.entries.size();
    }(&db, key, static_cast<size_t>(span), &returned));
    loop.Run();
  }
  benchmark::DoNotOptimize(returned);
  state.SetItemsProcessed(static_cast<int64_t>(returned));
}
void BM_ScanMerge(benchmark::State& state) { BM_ScanMerge(state, false); }
BENCHMARK(BM_ScanMerge)->Arg(16)->Arg(128);
BENCHMARK_CAPTURE(BM_ScanMerge, memtable, true)->Arg(16);

// One 16-key MultiGet per iteration through the cluster routing layer,
// keys resident in memtables (zero simulated IO time): measures the
// per-request fan-out machinery, cross-node messages included (one worker
// thread). Arg(0) = per-key routing (default), Arg(1) = slot-grouped
// batching.
void BM_MultiGetFanout(benchmark::State& state) {
  cluster::ClusterOptions options;
  options.num_nodes = 2;
  options.node_options.calibration = MicroTable();
  options.node_options.prefill_bytes = 64 * kMiB;
  options.batch_multiget = state.range(0) != 0;
  sim::MultiLoop engine(options.num_nodes + 1, {1, options.rpc_latency});
  cluster::Cluster cl(engine, options);
  auto admitted = cl.AddTenant(1, cluster::GlobalReservation{});
  if (!admitted.ok()) {
    state.SkipWithError("AddTenant failed");
    return;
  }
  cluster::TenantHandle tenant = admitted.value();
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  sim::Detach([](cluster::TenantHandle h,
                 std::vector<std::string> ks) -> sim::Task<void> {
    for (const std::string& k : ks) {
      co_await h.Put(k, "value");
    }
  }(tenant, keys));
  engine.Run();
  for (auto _ : state) {
    sim::Detach([](cluster::TenantHandle h,
                   const std::vector<std::string>* ks) -> sim::Task<void> {
      benchmark::DoNotOptimize(co_await h.MultiGet(*ks));
    }(tenant, &keys));
    engine.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_MultiGetFanout)->Arg(0)->Arg(1);

// One epoch of the parallel engine: every loop sends one message around a
// ring, then a single barrier — outbox exchange, (when, sender, seq) sort,
// injection, and the epoch step — delivers them all. Arg0 = loop count,
// Arg1 = worker threads (1 = no pool; >1 adds the cv hand-off, which is
// the per-epoch overhead a multi-core host must amortize against the
// per-loop event work). Items = messages exchanged.
void BM_EpochBarrierExchange(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr SimDuration kLookahead = 1000;
  sim::MultiLoop ml(n, {threads, kLookahead});
  uint64_t delivered = 0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      ml.Send(i, (i + 1) % n, kLookahead, [&delivered] { ++delivered; });
    }
    ml.Run();  // one barrier: exchange + advance + step every loop
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EpochBarrierExchange)
    ->Args({2, 1})
    ->Args({8, 1})
    ->Args({64, 1})
    ->Args({8, 4});

// --- Partition footprint and latency histograms -----------------------------

// Heap retained per idle partition: mallinfo2 bytes in use across 1000
// StorageNode::AddTenant calls with no traffic (counter
// bytes_per_partition). The timed region is the AddTenant calls alone.
void BM_PartitionFootprint(benchmark::State& state) {
  constexpr int kPartitions = 1000;
  kv::NodeOptions options;
  options.calibration = MicroTable();
  options.prefill_bytes = 64 * kMiB;
  double bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto loop = std::make_unique<sim::EventLoop>();
    auto node = std::make_unique<kv::StorageNode>(*loop, options);
    (void)node->AddTenant(0, {});  // first-use node state
    const auto before = static_cast<double>(mallinfo2().uordblks);
    state.ResumeTiming();
    for (iosched::TenantId t = 1; t <= kPartitions; ++t) {
      if (!node->AddTenant(t, {}).ok()) {
        state.SkipWithError("AddTenant failed");
      }
    }
    state.PauseTiming();
    bytes += static_cast<double>(mallinfo2().uordblks) - before;
    node.reset();
    loop.reset();
    state.ResumeTiming();
  }
  const double partitions =
      static_cast<double>(state.iterations()) * kPartitions;
  state.counters["bytes_per_partition"] = bytes / partitions;
  state.SetItemsProcessed(static_cast<int64_t>(partitions));
}
BENCHMARK(BM_PartitionFootprint)->Iterations(4)->Unit(benchmark::kMillisecond);

// 4096 values spread uniformly over `octaves` octaves starting at 2^10 ns.
std::vector<uint64_t> OctaveValues(int octaves) {
  Rng rng(11);
  std::vector<uint64_t> values(4096);
  for (uint64_t& v : values) {
    const int shift = 10 + static_cast<int>(rng.NextU64(octaves));
    v = (1ULL << shift) + rng.NextU64(1ULL << shift);
  }
  return values;
}

// One Record per iteration. Arg = octaves the values span: 1 is a typical
// latency series (one hot chunk), 20 forces the chunk-offset popcount to
// vary on every call.
void BM_HistogramRecord(benchmark::State& state) {
  const std::vector<uint64_t> values =
      OctaveValues(static_cast<int>(state.range(0)));
  obs::LatencyHistogram h;
  size_t i = 0;
  benchmark::DoNotOptimize(&h);
  for (auto _ : state) {
    h.Record(values[i++ & 4095]);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Arg(1)->Arg(20);

// One p99 query per iteration over 100k samples spanning `octaves` octaves.
void BM_HistogramPercentile(benchmark::State& state) {
  const std::vector<uint64_t> values =
      OctaveValues(static_cast<int>(state.range(0)));
  obs::LatencyHistogram h;
  for (int i = 0; i < 100000; ++i) {
    h.Record(values[i & 4095]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Percentile(0.99));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramPercentile)->Arg(1)->Arg(20);

}  // namespace
}  // namespace libra

BENCHMARK_MAIN();
