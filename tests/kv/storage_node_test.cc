#include "src/kv/storage_node.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <limits>

#include "src/obs/json.h"
#include "src/workload/workload.h"

namespace libra::kv {
namespace {

ssd::CalibrationTable NodeTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

NodeOptions TestOptions(bool cache = false) {
  NodeOptions opt;
  opt.calibration = NodeTable();
  opt.enable_cache = cache;
  opt.lsm_options.write_buffer_bytes = 256 * 1024;
  opt.lsm_options.max_bytes_level1 = 1 * kMiB;
  opt.prefill_bytes = 64 * kMiB;
  return opt;
}

struct NodeRig {
  sim::EventLoop loop;
  StorageNode node;

  explicit NodeRig(bool cache = false) : node(loop, TestOptions(cache)) {}

  void RunTask(sim::Task<void> t) {
    sim::Detach(std::move(t));
    loop.Run();
  }
};

TEST(StorageNodeTest, AddTenantAndRoundTrip) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {1000.0, 1000.0}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.node.Put(1, "k", "v")).ok());
    auto r = co_await rig.node.Get(1, "k");
    EXPECT_TRUE(r.status().ok());
    EXPECT_EQ(r.value(), "v");
  }());
}

TEST(StorageNodeTest, DuplicateTenantRejected) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {}).ok());
  EXPECT_EQ(rig.node.AddTenant(1, {}).code(), StatusCode::kAlreadyExists);
}

// A crashed node still hosts its tenants: registering one again must not
// open a second DB over the prefix the killed incarnation left behind.
TEST(StorageNodeTest, CrashedNodeRejectsHostedTenant) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(
          (co_await rig.node.Put(1, "k" + std::to_string(i), "v")).ok());
    }
  }());
  rig.node.Crash();
  EXPECT_TRUE(rig.node.HasTenant(1));
  EXPECT_TRUE(rig.node.tenants().empty());
  EXPECT_EQ(rig.node.partition(1), nullptr);
  EXPECT_EQ(rig.node.AddTenant(1, {}).code(), StatusCode::kAlreadyExists);
  rig.RunTask([&]() -> sim::Task<void> {
    const Status s = co_await rig.node.Restart();
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (int i = 0; i < 5; ++i) {
      auto r = co_await rig.node.Get(1, "k" + std::to_string(i));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  }());
  EXPECT_EQ(rig.node.tenants(), std::vector<iosched::TenantId>{1});
  ASSERT_NE(rig.node.partition(1), nullptr);
  EXPECT_EQ(rig.node.partition(1)->stats().recovered_records, 5u);
}

TEST(StorageNodeTest, UnknownTenantRejected) {
  NodeRig rig;
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_EQ((co_await rig.node.Put(9, "k", "v")).code(),
              StatusCode::kNotFound);
    auto r = co_await rig.node.Get(9, "k");
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }());
}

// Slots are handed out in arrival order; every output still lists tenants
// in ascending id order, and an id the node never admitted stays unknown.
TEST(StorageNodeTest, NonMonotonicAdmissionKeepsIdOrder) {
  const std::vector<iosched::TenantId> arrival = {900, 3, 4000000000u, 17};
  const std::vector<iosched::TenantId> by_id = {3, 17, 900, 4000000000u};
  NodeRig rig;
  for (const iosched::TenantId t : arrival) {
    ASSERT_TRUE(rig.node.AddTenant(t, {100.0, 100.0}).ok()) << t;
  }
  EXPECT_EQ(rig.node.tenants(), by_id);
  rig.RunTask([&]() -> sim::Task<void> {
    for (const iosched::TenantId t : arrival) {
      EXPECT_TRUE(
          (co_await rig.node.Put(t, "k", "v" + std::to_string(t))).ok());
    }
    for (const iosched::TenantId unknown : {4u, 4000000001u}) {
      EXPECT_EQ((co_await rig.node.Get(unknown, "k")).status().code(),
                StatusCode::kNotFound);
      EXPECT_EQ((co_await rig.node.Put(unknown, "k", "v")).code(),
                StatusCode::kNotFound);
    }
  }());
  EXPECT_EQ(rig.node.UpdateReservation(4, {}).code(), StatusCode::kNotFound);
  EXPECT_FALSE(rig.node.HasTenant(4));
  EXPECT_EQ(rig.node.scheduler().lifecycle(4), nullptr);
  EXPECT_FALSE(rig.node.tracker().Attribution(4).has_value());

  // One provisioning step after traffic: audit rows and SLA rows exist.
  rig.node.policy().RunIntervalStep();
  EXPECT_EQ(rig.node.tracker().tenants(), by_id);
  EXPECT_EQ(rig.node.policy().sla().tenants(), by_id);
  EXPECT_EQ(rig.node.policy().sla().Of(4), nullptr);
  ASSERT_FALSE(rig.node.policy().audit_log().records().empty());
  std::vector<iosched::TenantId> audited;
  for (const obs::AuditTenantEntry& e :
       rig.node.policy().audit_log().records().back().tenants) {
    audited.push_back(e.tenant);
  }
  EXPECT_EQ(audited, by_id);

  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonParse(NodeStatsToJson(rig.node.Snapshot()), &v, &err))
      << err;
  const auto ids_of = [](const obs::JsonValue* array) {
    std::vector<iosched::TenantId> out;
    for (const obs::JsonValue& e : array->array) {
      out.push_back(static_cast<iosched::TenantId>(e.Find("tenant")->number));
    }
    return out;
  };
  EXPECT_EQ(ids_of(v.Find("tenants")), by_id);
  EXPECT_EQ(ids_of(v.Find("audit")->array.back().Find("tenants")), by_id);
  for (const obs::JsonValue& t : v.Find("tenants")->array) {
    EXPECT_TRUE(t.Find("sla")->Find("tracked")->bool_value);
  }

  // Every tenant comes back from the WAL after a crash and restart.
  rig.node.Crash();
  rig.RunTask([&]() -> sim::Task<void> {
    const Status s = co_await rig.node.Restart();
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (const iosched::TenantId t : arrival) {
      const Result<std::string> r = co_await rig.node.Get(t, "k");
      EXPECT_TRUE(r.ok()) << t;
      EXPECT_EQ(r.ok() ? r.value() : "", "v" + std::to_string(t));
    }
  }());
  EXPECT_EQ(rig.node.tenants(), by_id);
}

TEST(StorageNodeTest, UpdateReservationValidates) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {100.0, 100.0}).ok());
  // Unknown tenants and malformed rates are rejected with the reason.
  EXPECT_EQ(rig.node.UpdateReservation(9, {10.0, 10.0}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(rig.node.UpdateReservation(1, {-1.0, 10.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rig.node.UpdateReservation(1, {10.0, -1.0}).code(),
            StatusCode::kInvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(rig.node.UpdateReservation(1, {nan, 0.0}).code(),
            StatusCode::kInvalidArgument);
  // A failed update leaves the previous reservation installed.
  EXPECT_EQ(rig.node.policy().GetReservation(1).get_rps(), 100.0);
  // Zero is legal (an existing tenant downgraded to best-effort).
  EXPECT_TRUE(rig.node.UpdateReservation(1, {}).ok());
  EXPECT_EQ(rig.node.policy().GetReservation(1).get_rps(), 0.0);
  // And valid updates land.
  EXPECT_TRUE(rig.node.UpdateReservation(1, {250.0, 125.0}).ok());
  EXPECT_EQ(rig.node.policy().GetReservation(1).put_rps(), 125.0);
}

TEST(StorageNodeTest, AddTenantValidatesReservation) {
  NodeRig rig;
  EXPECT_EQ(rig.node.AddTenant(1, {-5.0, 0.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(rig.node.HasTenant(1));
  EXPECT_TRUE(rig.node.AddTenant(1, {}).ok());
  EXPECT_TRUE(rig.node.HasTenant(1));
  EXPECT_EQ(rig.node.tenants(), std::vector<iosched::TenantId>{1});
}

TEST(StorageNodeTest, TenantsAreIsolatedNamespaces) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {}).ok());
  ASSERT_TRUE(rig.node.AddTenant(2, {}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.node.Put(1, "shared-key", "tenant1");
    co_await rig.node.Put(2, "shared-key", "tenant2");
    auto r1 = co_await rig.node.Get(1, "shared-key");
    auto r2 = co_await rig.node.Get(2, "shared-key");
    EXPECT_EQ(r1.value(), "tenant1");
    EXPECT_EQ(r2.value(), "tenant2");
  }());
}

TEST(StorageNodeTest, DeleteRemovesKey) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.node.Put(1, "k", "v");
    EXPECT_TRUE((co_await rig.node.Delete(1, "k")).ok());
    auto r = co_await rig.node.Get(1, "k");
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }());
}

TEST(StorageNodeTest, AppRequestsRecordedNormalized) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.node.Put(1, "k", std::string(4096, 'v'));  // 4 normalized
    co_await rig.node.Get(1, "k");                          // 4 normalized
  }());
  EXPECT_NEAR(rig.node.tracker().NormalizedRequestsTotal(
                  1, iosched::AppRequest::kPut),
              4.0, 1e-9);
  EXPECT_NEAR(rig.node.tracker().NormalizedRequestsTotal(
                  1, iosched::AppRequest::kGet),
              4.0, 1e-9);
}

TEST(StorageNodeTest, CacheHitConsumesNoIo) {
  NodeRig rig(/*cache=*/true);
  ASSERT_TRUE(rig.node.AddTenant(1, {}).ok());
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.node.Put(1, "k", std::string(1024, 'v'));
    const uint64_t reads_before = rig.node.tracker().Stats(1).read_ops;
    auto r = co_await rig.node.Get(1, "k");  // write-through: cache hit
    EXPECT_TRUE(r.status().ok());
    EXPECT_EQ(rig.node.tracker().Stats(1).read_ops, reads_before);
  }());
  EXPECT_GT(rig.node.cache()->hits(), 0u);
}

// Fills the tenant's partition past the 256KB write buffer so early keys
// live in SSTables (memtable GETs never suspend, so coalescing and table
// IO only show up against flushed data), then waits for background work.
sim::Task<void> PreloadFlushed(StorageNode* node, int n) {
  for (int i = 0; i < n; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%08d", i);
    co_await node->Put(1, key, std::string(1024, 'v'));
  }
  co_await node->partition(1)->WaitIdle();
}

TEST(StorageNodeTest, ReadCoalescingSharesOneLookupAcrossDuplicateGets) {
  sim::EventLoop loop;
  NodeOptions opt = TestOptions();
  opt.enable_read_coalescing = true;
  StorageNode node(loop, opt);
  ASSERT_TRUE(node.AddTenant(1, {}).ok());
  sim::Detach(PreloadFlushed(&node, 300));
  loop.Run();
  // Warm the table indexes so burst and reference lookups cost the same.
  auto get0 = [&]() -> sim::Task<void> {
    auto r = co_await node.Get(1, "key00000000");
    EXPECT_TRUE(r.status().ok());
    EXPECT_EQ(r.value().size(), 1024u);
  };
  sim::Detach(get0());
  loop.Run();

  const auto& tr = node.tracker();
  const uint64_t reads_before = tr.Stats(1).read_ops;
  const double norm_before =
      tr.NormalizedRequestsTotal(1, iosched::AppRequest::kGet);
  for (int i = 0; i < 4; ++i) {
    sim::Detach(get0());
  }
  loop.Run();
  // Three of the four rode the leader's in-flight lookup.
  EXPECT_EQ(node.coalesced_gets(), 3u);
  const uint64_t burst_reads = tr.Stats(1).read_ops - reads_before;
  // Billing is per request even when the IO is shared: all four GETs are
  // recorded as served app requests.
  EXPECT_NEAR(tr.NormalizedRequestsTotal(1, iosched::AppRequest::kGet) -
                  norm_before,
              4.0, 1e-9);
  // The whole burst cost exactly one lookup's device reads.
  const uint64_t single_before = tr.Stats(1).read_ops;
  sim::Detach(get0());
  loop.Run();
  EXPECT_EQ(burst_reads, tr.Stats(1).read_ops - single_before);
}

TEST(StorageNodeTest, ReadCoalescingPropagatesNotFoundToFollowers) {
  sim::EventLoop loop;
  NodeOptions opt = TestOptions();
  opt.enable_read_coalescing = true;
  StorageNode node(loop, opt);
  ASSERT_TRUE(node.AddTenant(1, {}).ok());
  sim::Detach(PreloadFlushed(&node, 300));
  loop.Run();
  // An in-range never-written key: a memtable tombstone would answer
  // without IO, but this lookup must probe tables (real IO, a real
  // coalescing window), and every follower sees the same NotFound.
  int not_found = 0;
  auto miss = [&]() -> sim::Task<void> {
    auto r = co_await node.Get(1, "key00000010x");
    if (r.status().code() == StatusCode::kNotFound) {
      ++not_found;
    }
  };
  for (int i = 0; i < 3; ++i) {
    sim::Detach(miss());
  }
  loop.Run();
  EXPECT_EQ(not_found, 3);
  EXPECT_EQ(node.coalesced_gets(), 2u);
}

TEST(StorageNodeTest, ReadCoalescingOffEveryGetPaysItsOwnIo) {
  sim::EventLoop loop;
  StorageNode node(loop, TestOptions());  // coalescing defaults off
  ASSERT_TRUE(node.AddTenant(1, {}).ok());
  sim::Detach(PreloadFlushed(&node, 300));
  loop.Run();
  auto get0 = [&]() -> sim::Task<void> {
    auto r = co_await node.Get(1, "key00000000");
    EXPECT_TRUE(r.status().ok());
  };
  sim::Detach(get0());  // warm indexes
  loop.Run();
  const uint64_t single_before = node.tracker().Stats(1).read_ops;
  sim::Detach(get0());
  loop.Run();
  const uint64_t single_reads =
      node.tracker().Stats(1).read_ops - single_before;
  ASSERT_GT(single_reads, 0u);
  const uint64_t burst_before = node.tracker().Stats(1).read_ops;
  for (int i = 0; i < 4; ++i) {
    sim::Detach(get0());
  }
  loop.Run();
  EXPECT_EQ(node.coalesced_gets(), 0u);
  EXPECT_EQ(node.tracker().Stats(1).read_ops - burst_before,
            4 * single_reads);
}

TEST(StorageNodeTest, PolicyProvisionsFromReservations) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {1000.0, 0.0}).ok());
  ASSERT_TRUE(rig.node.AddTenant(2, {0.0, 1000.0}).ok());
  rig.node.Start();
  rig.loop.RunUntil(2 * kSecond);
  rig.node.Stop();
  // PUT-reserved tenant gets a larger VOP allocation (writes cost more).
  EXPECT_GT(rig.node.scheduler().Allocation(2),
            rig.node.scheduler().Allocation(1));
  EXPECT_GT(rig.node.scheduler().Allocation(1), 0.0);
  rig.loop.Run();
}

TEST(StorageNodeTest, WorkloadDrivesThroughput) {
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(1, {2000.0, 2000.0}).ok());
  workload::KvWorkloadSpec spec;
  spec.get_fraction = 0.5;
  spec.get_size = {4096.0, 0.0};
  spec.put_size = {4096.0, 0.0};
  spec.live_bytes_target = 4 * kMiB;
  spec.workers = 4;
  workload::KvTenantWorkload wl(rig.loop, rig.node, 1, spec, 99);
  rig.RunTask([&]() -> sim::Task<void> { co_await wl.Preload(); }());
  rig.node.Start();
  {
    sim::TaskGroup group(rig.loop);
    const SimTime end = rig.loop.Now() + 2 * kSecond;
    wl.Start(group, end);
    // The started policy keeps a timer pending forever: bound the run,
    // stop the policy, then drain the finite remainder.
    rig.loop.RunUntil(end + kSecond);
    rig.node.Stop();
    rig.loop.Run();
  }
  EXPECT_GT(wl.gets_done(), 100u);
  EXPECT_GT(wl.puts_done(), 100u);
}

// Memory, not events, bounds how many partitions a node can host, so the
// heap an idle partition retains (AddTenant, no requests) is pinned: dense
// histograms and eagerly allocated std::deque queues made it ~18.8 KB.
TEST(StorageNodeTest, IdlePartitionFootprintStaysSmall) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator replaces malloc, so mallinfo2 "
                  "does not see the heap";
#else
  NodeRig rig;
  ASSERT_TRUE(rig.node.AddTenant(0, {}).ok());  // first-use node state
  constexpr int kPartitions = 1000;
  const auto before = static_cast<int64_t>(mallinfo2().uordblks);
  for (iosched::TenantId t = 1; t <= kPartitions; ++t) {
    ASSERT_TRUE(rig.node.AddTenant(t, {}).ok());
  }
  const auto after = static_cast<int64_t>(mallinfo2().uordblks);
  EXPECT_LE(static_cast<double>(after - before) / kPartitions, 4096.0);
#endif
}

}  // namespace
}  // namespace libra::kv
