#include "src/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace libra {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (int jobs : {2, 4, 7}) {
    std::vector<std::atomic<int>> runs(1000);
    ParallelFor(jobs, runs.size(), [&](size_t i) { runs[i].fetch_add(1); });
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "jobs " << jobs << " index " << i;
    }
  }
}

TEST(ParallelForTest, OneJobRunsInlineInOrder) {
  for (int jobs : {-1, 0, 1}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    ParallelFor(jobs, 5, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4})) << "jobs " << jobs;
  }
}

TEST(ParallelForTest, ZeroCountRunsNothing) {
  ParallelFor(4, 0, [](size_t) { FAIL() << "no index to run"; });
}

TEST(ParallelForTest, RethrowsFirstExceptionAfterJoin) {
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  try {
    ParallelFor(4, 64, [&](size_t i) {
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (i == 3) {
        throw std::runtime_error("job 3");
      }
      finished.fetch_add(1);
    });
    FAIL() << "expected the job's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 3");
  }
  // The pool joined before the rethrow: every job that started has ended,
  // all but the throwing one normally.
  EXPECT_EQ(finished.load(), started.load() - 1);
}

TEST(ParallelForTest, InlineRunRethrowsAndStops) {
  int ran = 0;
  EXPECT_THROW(ParallelFor(1, 10,
                           [&](size_t i) {
                             ++ran;
                             if (i == 2) {
                               throw std::runtime_error("stop");
                             }
                           }),
               std::runtime_error);
  EXPECT_EQ(ran, 3);
}

}  // namespace
}  // namespace libra
