#include "src/sim/sync.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"

#include "src/sim/event_loop.h"
#include "src/sim/task.h"

namespace libra::sim {
namespace {

TEST(SleepTest, AdvancesVirtualTime) {
  EventLoop loop;
  SimTime woke_at = -1;
  auto sleeper = [&]() -> Task<void> {
    co_await SleepFor(loop, 123);
    woke_at = loop.Now();
  };
  Detach(sleeper());
  loop.Run();
  EXPECT_EQ(woke_at, 123);
}

TEST(SleepTest, ZeroOrNegativeIsImmediate) {
  EventLoop loop;
  int count = 0;
  auto sleeper = [&]() -> Task<void> {
    co_await SleepFor(loop, 0);
    co_await SleepFor(loop, -5);
    ++count;
  };
  Detach(sleeper());
  EXPECT_EQ(count, 1);  // never suspended
}

TEST(OneShotTest, WaitThenSet) {
  EventLoop loop;
  OneShot<int> shot(loop);
  int got = 0;
  auto waiter = [&]() -> Task<void> { got = co_await shot.Wait(); };
  Detach(waiter());
  EXPECT_EQ(got, 0);
  shot.Set(7);
  loop.Run();
  EXPECT_EQ(got, 7);
}

TEST(OneShotTest, SetThenWaitIsImmediate) {
  EventLoop loop;
  OneShot<std::string> shot(loop);
  shot.Set("ready");
  std::string got;
  auto waiter = [&]() -> Task<void> { got = co_await shot.Wait(); };
  Detach(waiter());
  EXPECT_EQ(got, "ready");  // no suspension needed
}

TEST(MutexTest, UncontendedLockIsImmediate) {
  EventLoop loop;
  Mutex mu(loop);
  bool done = false;
  auto t = [&]() -> Task<void> {
    co_await mu.Lock();
    EXPECT_TRUE(mu.locked());
    mu.Unlock();
    done = true;
  };
  Detach(t());
  EXPECT_TRUE(done);
  EXPECT_FALSE(mu.locked());
}

TEST(MutexTest, MutualExclusionAndFifoHandoff) {
  EventLoop loop;
  Mutex mu(loop);
  std::vector<int> order;
  int in_critical = 0;
  auto t = [&](int id) -> Task<void> {
    co_await mu.Lock();
    EXPECT_EQ(in_critical, 0);
    ++in_critical;
    co_await SleepFor(loop, 10);
    --in_critical;
    order.push_back(id);
    mu.Unlock();
  };
  for (int i = 0; i < 4; ++i) {
    Detach(t(i));
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CondVarTest, WaitUntilNotified) {
  EventLoop loop;
  Mutex mu(loop);
  CondVar cv(loop);
  bool flag = false;
  bool observed = false;

  auto consumer = [&]() -> Task<void> {
    co_await mu.Lock();
    while (!flag) {
      co_await cv.Wait(mu);
    }
    observed = true;
    mu.Unlock();
  };
  auto producer = [&]() -> Task<void> {
    co_await SleepFor(loop, 50);
    co_await mu.Lock();
    flag = true;
    cv.NotifyOne();
    mu.Unlock();
  };
  Detach(consumer());
  Detach(producer());
  loop.Run();
  EXPECT_TRUE(observed);
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  EventLoop loop;
  Mutex mu(loop);
  CondVar cv(loop);
  bool go = false;
  int woke = 0;
  auto waiter = [&]() -> Task<void> {
    co_await mu.Lock();
    while (!go) {
      co_await cv.Wait(mu);
    }
    ++woke;
    mu.Unlock();
  };
  for (int i = 0; i < 5; ++i) {
    Detach(waiter());
  }
  auto kicker = [&]() -> Task<void> {
    co_await SleepFor(loop, 10);
    co_await mu.Lock();
    go = true;
    cv.NotifyAll();
    mu.Unlock();
  };
  Detach(kicker());
  loop.Run();
  EXPECT_EQ(woke, 5);
}

TEST(CondVarTest, NotifyWithNoWaitersIsNoop) {
  EventLoop loop;
  CondVar cv(loop);
  cv.NotifyOne();
  cv.NotifyAll();
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(IntegrationTest, ProducerConsumerPipeline) {
  EventLoop loop;
  Mutex mu(loop);
  CondVar cv(loop);
  std::vector<int> queue;
  std::vector<int> consumed;
  bool closed = false;

  auto producer = [&]() -> Task<void> {
    for (int i = 0; i < 20; ++i) {
      co_await SleepFor(loop, 3);
      co_await mu.Lock();
      queue.push_back(i);
      cv.NotifyOne();
      mu.Unlock();
    }
    co_await mu.Lock();
    closed = true;
    cv.NotifyAll();
    mu.Unlock();
  };
  auto consumer = [&]() -> Task<void> {
    while (true) {
      co_await mu.Lock();
      while (queue.empty() && !closed) {
        co_await cv.Wait(mu);
      }
      if (queue.empty() && closed) {
        mu.Unlock();
        co_return;
      }
      consumed.push_back(queue.front());
      queue.erase(queue.begin());
      mu.Unlock();
    }
  };
  Detach(producer());
  Detach(consumer());
  loop.Run();
  ASSERT_EQ(consumed.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(consumed[i], i);
  }
}

TEST(FifoQueueTest, MatchesDequeAndReleasesPoppedElements) {
  // Random interleavings of bursts and drains against a std::deque model:
  // same order and sizes through every compaction, and a popped element
  // releases what it owns at once (the queue's copy of the shared_ptr is
  // gone as soon as pop_front returns).
  Rng rng(17);
  FifoQueue<std::shared_ptr<int>> q;
  std::deque<std::shared_ptr<int>> model;
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    if (model.empty() || rng.NextU64(100) < 52) {
      auto v = std::make_shared<int>(next++);
      q.push_back(v);
      model.push_back(v);
    } else {
      ASSERT_EQ(q.front(), model.front());
      std::shared_ptr<int> popped = model.front();
      q.pop_front();
      model.pop_front();
      EXPECT_EQ(popped.use_count(), 1);
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
  }
  while (!model.empty()) {
    ASSERT_EQ(*q.front(), *model.front());
    q.pop_front();
    model.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace libra::sim
