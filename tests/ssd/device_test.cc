#include "src/ssd/device.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/profile.h"

namespace libra::ssd {
namespace {

DeviceProfile TestProfile() {
  DeviceProfile p = Intel320Profile();
  p.capacity_bytes = 256ULL * kMiB;
  return p;
}

TEST(SsdDeviceTest, CompletionTakesPositiveTime) {
  sim::EventLoop loop;
  SsdDevice dev(loop, TestProfile());
  SimTime completed_at = -1;
  dev.Submit({IoType::kRead, 0, 4096}, [&] { completed_at = loop.Now(); });
  EXPECT_EQ(dev.inflight(), 1);
  loop.Run();
  EXPECT_GT(completed_at, 0);
  EXPECT_EQ(dev.inflight(), 0);
}

TEST(SsdDeviceTest, LargerOpsTakeLonger) {
  auto latency_of = [](uint32_t size) {
    sim::EventLoop loop;
    SsdDevice dev(loop, TestProfile());
    SimTime done = 0;
    dev.Submit({IoType::kRead, 0, size}, [&] { done = loop.Now(); });
    loop.Run();
    return done;
  };
  EXPECT_LT(latency_of(4096), latency_of(256 * 1024));
}

TEST(SsdDeviceTest, WritesSlowerThanReadsAtSmallSizes) {
  auto latency_of = [](IoType type) {
    sim::EventLoop loop;
    SsdDevice dev(loop, TestProfile());
    SimTime done = 0;
    dev.Submit({type, 0, 4096}, [&] { done = loop.Now(); });
    loop.Run();
    return done;
  };
  EXPECT_GT(latency_of(IoType::kWrite), latency_of(IoType::kRead));
}

TEST(SsdDeviceTest, StatsCountOpsAndBytes) {
  sim::EventLoop loop;
  SsdDevice dev(loop, TestProfile());
  dev.Submit({IoType::kRead, 0, 8192}, [] {});
  dev.Submit({IoType::kWrite, 65536, 4096}, [] {});
  loop.Run();
  const DeviceStats s = dev.stats();
  EXPECT_EQ(s.reads_completed, 1u);
  EXPECT_EQ(s.writes_completed, 1u);
  EXPECT_EQ(s.read_bytes, 8192u);
  EXPECT_EQ(s.write_bytes, 4096u);
}

TEST(SsdDeviceTest, ParallelSmallReadsOverlap) {
  // 8 concurrent 4K reads to distinct stripes should take far less than 8x
  // a single read (die parallelism).
  sim::EventLoop loop;
  SsdDevice dev(loop, TestProfile());
  SimTime single = 0;
  dev.Submit({IoType::kRead, 0, 4096}, [&] { single = loop.Now(); });
  loop.Run();

  sim::EventLoop loop2;
  SsdDevice dev2(loop2, TestProfile());
  SimTime last = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    dev2.Submit({IoType::kRead, i * 16 * 1024, 4096},
                [&] { last = loop2.Now(); });
  }
  loop2.Run();
  EXPECT_LT(last, 3 * single);
}

TEST(SsdDeviceTest, SameDieReadsSerialize) {
  // Reads hitting the same stripe queue on one die.
  sim::EventLoop loop;
  SsdDevice dev(loop, TestProfile());
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    dev.Submit({IoType::kRead, 0, 4096},
               [&] { completions.push_back(loop.Now()); });
  }
  loop.Run();
  ASSERT_EQ(completions.size(), 4u);
  // Strictly increasing completion times: the die is a serial resource.
  for (size_t i = 1; i < completions.size(); ++i) {
    EXPECT_GT(completions[i], completions[i - 1]);
  }
  // Total time ~4x the single-op die time, not ~1x.
  EXPECT_GT(completions.back(), completions.front() * 2);
}

TEST(SsdDeviceTest, RwSwitchPenaltyIncreasesMixedLatency) {
  // Alternate whole-array reads (256KB touches every die) with writes, so
  // the writes cannot dodge read-busy dies and must pay the switch cost.
  auto run_mixed = [](bool penalty_on) {
    sim::EventLoop loop;
    DeviceOptions opt;
    opt.enable_rw_switch_penalty = penalty_on;
    SsdDevice dev(loop, TestProfile(), opt);
    SimTime last = 0;
    for (int i = 0; i < 16; ++i) {
      const IoType t = (i % 2 == 0) ? IoType::kRead : IoType::kWrite;
      dev.Submit({t, static_cast<uint64_t>(i) * 256 * 1024, 256 * 1024},
                 [&] { last = loop.Now(); });
    }
    loop.Run();
    return last;
  };
  EXPECT_GT(run_mixed(true), run_mixed(false));
}

TEST(SsdDeviceTest, GcAblationSpeedsUpOverwriteChurn) {
  auto run_churn = [](bool gc_on) {
    sim::EventLoop loop;
    DeviceProfile p = TestProfile();
    // Small and full, so overwrites drain the free pool and GC must run;
    // 25% overprovisioning leaves 6 spare blocks per die for it.
    p.capacity_bytes = 64ULL * kMiB;
    p.overprovision = 0.25;
    DeviceOptions opt;
    opt.enable_gc = gc_on;
    SsdDevice dev(loop, p, opt);
    dev.Prefill(p.capacity_bytes);
    Rng rng(5);
    SimTime last = 0;
    auto worker = [&]() -> sim::Task<void> {
      for (int i = 0; i < 400; ++i) {
        const uint64_t slot = rng.NextU64(p.capacity_bytes / 4096);
        co_await dev.SubmitAwait({IoType::kWrite, slot * 4096, 4096});
        last = loop.Now();
      }
    };
    {
      sim::TaskGroup group(loop);
      for (int w = 0; w < 8; ++w) {
        group.Spawn(worker());
      }
      loop.Run();
    }
    return last;
  };
  EXPECT_GT(run_churn(true), run_churn(false));
}

TEST(SsdDeviceTest, SubmitAwaitResumesAfterCompletion) {
  sim::EventLoop loop;
  SsdDevice dev(loop, TestProfile());
  bool done = false;
  auto t = [&]() -> sim::Task<void> {
    co_await dev.SubmitAwait({IoType::kRead, 0, 4096});
    done = true;
    EXPECT_GT(loop.Now(), 0);
  };
  sim::Detach(t());
  EXPECT_FALSE(done);
  loop.Run();
  EXPECT_TRUE(done);
}

TEST(SsdDeviceTest, TrimDoesNotAdvanceTime) {
  sim::EventLoop loop;
  SsdDevice dev(loop, TestProfile());
  dev.Prefill(16 * kMiB);
  dev.Trim(0, 1 * kMiB);
  EXPECT_EQ(loop.Now(), 0);
  EXPECT_TRUE(loop.empty());
}

TEST(SsdDeviceTest, SequentialReadsBenefitFromDetection) {
  auto run = [](bool seq_pattern) {
    sim::EventLoop loop;
    SsdDevice dev(loop, TestProfile());
    Rng rng(3);
    SimTime last = 0;
    uint64_t cursor = 0;
    auto worker = [&]() -> sim::Task<void> {
      for (int i = 0; i < 200; ++i) {
        uint64_t off;
        if (seq_pattern) {
          off = cursor;
          cursor += 64 * 1024;
        } else {
          off = rng.NextU64(1024) * 64 * 1024;
        }
        co_await dev.SubmitAwait({IoType::kRead, off, 64 * 1024});
        last = loop.Now();
      }
    };
    sim::Detach(worker());
    loop.Run();
    return last;
  };
  // A single-stream sequential scan completes no slower than random access
  // of the same volume (readahead discount).
  EXPECT_LE(run(true), run(false));
}

}  // namespace
}  // namespace libra::ssd
