// Coroutine-aware synchronization for the virtual-time runtime: sleeping,
// one-shot completions (how the IO scheduler hands results back to suspended
// tenant tasks), mutexes, condition variables, and task groups.
//
// Everything here is single-threaded: "concurrency" is coroutine
// interleaving on one EventLoop, so no atomics are involved. Waiters are
// resumed via EventLoop::Post to bound stack depth and keep resume order
// FIFO and deterministic.

#ifndef LIBRA_SRC_SIM_SYNC_H_
#define LIBRA_SRC_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/sim/event_loop.h"
#include "src/sim/task.h"

namespace libra::sim {

// --- FIFO queue ---------------------------------------------------------------

// Queue for waiters and other per-partition backlogs that are empty most of
// the time: a vector plus a head index, so an idle queue owns no heap memory
// (a std::deque allocates a map and a block at construction) and allocates
// on its first push. Popped slots are reset at once, releasing what they
// own. The vector restarts at its front when the queue drains and drops its
// popped prefix once that outgrows the live part, so each element is moved
// O(1) times on average.
template <typename T>
class FifoQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  T& front() {
    assert(!empty());
    return items_[head_];
  }
  const T& front() const {
    assert(!empty());
    return items_[head_];
  }

  void push_back(T value) {
    if (head_ > 0 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(value));
  }

  void pop_front() {
    assert(!empty());
    items_[head_++] = T();
    if (empty()) {
      items_.clear();
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;
};

// --- Sleeping -------------------------------------------------------------

class SleepAwaiter {
 public:
  SleepAwaiter(EventLoop& loop, SimDuration delay)
      : loop_(loop), delay_(delay) {}

  bool await_ready() const noexcept { return delay_ <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    loop_.ScheduleAfter(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  EventLoop& loop_;
  SimDuration delay_;
};

inline SleepAwaiter SleepFor(EventLoop& loop, SimDuration delay) {
  return SleepAwaiter(loop, delay);
}

inline SleepAwaiter SleepUntil(EventLoop& loop, SimTime when) {
  return SleepAwaiter(loop, when - loop.Now());
}

// --- One-shot completion ---------------------------------------------------

// Single-producer, single-consumer, single-use rendezvous. The IO scheduler
// resolves a tenant's suspended IO task by calling Set(); the tenant task
// co_awaits Wait(). Set-before-wait and wait-before-set are both supported.
template <typename T>
class OneShot {
 public:
  explicit OneShot(EventLoop& loop) : loop_(&loop) {}

  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;

  void Set(T value) {
    assert(!value_.has_value() && "OneShot set twice");
    value_.emplace(std::move(value));
    if (waiter_) {
      auto h = std::exchange(waiter_, {});
      loop_->Post([h] { h.resume(); });
    }
  }

  bool ready() const { return value_.has_value(); }

  struct Awaiter {
    OneShot* self;
    bool await_ready() const noexcept { return self->value_.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      assert(!self->waiter_ && "OneShot awaited twice");
      self->waiter_ = h;
    }
    T await_resume() { return std::move(*self->value_); }
  };

  Awaiter Wait() { return Awaiter{this}; }

 private:
  EventLoop* loop_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_;
};

// --- Mutex ------------------------------------------------------------------

// FIFO coroutine mutex. Usage:
//   co_await mu.Lock();
//   ... critical section ...
//   mu.Unlock();
class Mutex {
 public:
  explicit Mutex(EventLoop& loop) : loop_(&loop) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  struct LockAwaiter {
    Mutex* mu;
    bool await_ready() const noexcept {
      if (!mu->locked_) {
        mu->locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      mu->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  LockAwaiter Lock() { return LockAwaiter{this}; }

  void Unlock() {
    assert(locked_);
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    // Hand the lock directly to the next waiter (it stays locked).
    auto h = waiters_.front();
    waiters_.pop_front();
    loop_->Post([h] { h.resume(); });
  }

  bool locked() const { return locked_; }

 private:
  friend class CondVar;

  EventLoop* loop_;
  bool locked_ = false;
  FifoQueue<std::coroutine_handle<>> waiters_;
};

// --- Condition variable ------------------------------------------------------

class CondVar {
 public:
  explicit CondVar(EventLoop& loop) : loop_(&loop) {}

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, waits for a notification, then re-acquires
  // `mu` before returning. Spurious wakeups do not occur, but callers should
  // still re-check their predicate in a loop (another task may have consumed
  // the state between notify and re-acquisition).
  Task<void> Wait(Mutex& mu) {
    mu.Unlock();
    co_await WaitAwaiter{this};
    co_await mu.Lock();
  }

  void NotifyOne() {
    if (waiters_.empty()) {
      return;
    }
    auto h = waiters_.front();
    waiters_.pop_front();
    loop_->Post([h] { h.resume(); });
  }

  void NotifyAll() {
    while (!waiters_.empty()) {
      NotifyOne();
    }
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  struct WaitAwaiter {
    CondVar* cv;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      cv->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  EventLoop* loop_;
  FifoQueue<std::coroutine_handle<>> waiters_;
};

// --- Task group ----------------------------------------------------------------

// Spawns detached child tasks and lets a parent await their collective
// completion — the workload harness pattern: spawn N tenant workers, run the
// clock, join.
class TaskGroup {
 public:
  explicit TaskGroup(EventLoop& loop) : loop_(&loop) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup() { assert(pending_ == 0 && "TaskGroup destroyed with live tasks"); }

  void Spawn(Task<void> task) {
    ++pending_;
    Detach(Wrap(this, std::move(task)));
  }

  // Resolves once all tasks spawned so far have finished.
  Task<void> Join() {
    while (pending_ > 0) {
      co_await JoinAwaiter{this};
    }
  }

  size_t pending() const { return pending_; }

 private:
  static Task<void> Wrap(TaskGroup* group, Task<void> task) {
    co_await std::move(task);
    group->OnTaskDone();
  }

  void OnTaskDone() {
    assert(pending_ > 0);
    --pending_;
    if (pending_ == 0 && joiner_) {
      auto h = std::exchange(joiner_, {});
      loop_->Post([h] { h.resume(); });
    }
  }

  struct JoinAwaiter {
    TaskGroup* group;
    bool await_ready() const noexcept { return group->pending_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(!group->joiner_ && "TaskGroup supports one joiner");
      group->joiner_ = h;
    }
    void await_resume() const noexcept {}
  };

  EventLoop* loop_;
  size_t pending_ = 0;
  std::coroutine_handle<> joiner_;
};

}  // namespace libra::sim

#endif  // LIBRA_SRC_SIM_SYNC_H_
