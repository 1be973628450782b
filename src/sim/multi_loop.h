// Conservative parallel discrete-event runtime: N EventLoops stepped in
// virtual-time epochs by a worker pool, exchanging cross-loop messages only
// at epoch barriers.
//
// Model (classic conservative PDES with a global lookahead):
//  - Every cross-loop interaction is a message sent with Send(from, to,
//    delay, cb); `delay` must be at least the configured lookahead. Messages
//    accumulate in per-sender outboxes during an epoch.
//  - An epoch starts at a barrier: outboxes are drained and each message is
//    injected into its destination loop as an ordinary event at its delivery
//    time, in (delivery_time, sender, sender_seq) order, so injection order
//    — and therefore the destination's FIFO tie-break at equal timestamps —
//    is independent of thread schedule.
//  - The barrier computes G = the minimum next event (or barrier-hook) time
//    across all loops, advances every clock to G, runs due hooks, then steps
//    every loop independently up to the exclusive horizon H = G + lookahead.
//    A message sent at time t >= G has delivery time t + delay >= G +
//    lookahead = H, so nothing sent during an epoch can be needed before the
//    next barrier: loops never see a message "from the past".
//
// Determinism: each loop is single-threaded within an epoch and loops share
// no mutable state (callers must route every cross-loop effect through
// Send), the exchange order is a pure function of (delivery_time, sender,
// seq), and barrier times depend only on event timestamps. The same epoch
// algorithm runs regardless of worker count, so a run's outputs are
// byte-identical for any `threads`, including 1.
//
// Convention used by the cluster layer: loop 0 is the coordinator (client
// routing, workloads, fault schedule), loops 1..N-1 are storage nodes.

#ifndef LIBRA_SRC_SIM_MULTI_LOOP_H_
#define LIBRA_SRC_SIM_MULTI_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/event_loop.h"
#include "src/sim/small_fn.h"

namespace libra::sim {

struct MultiLoopOptions {
  // Worker threads stepping loops within an epoch, including the calling
  // thread (<= 1: no pool, the caller steps every loop). Thread count never
  // affects simulation output, only wall-clock time.
  int threads = 1;
  // Epoch width and the minimum legal Send() delay. Must be positive.
  SimDuration lookahead = 0;
};

class MultiLoop {
 public:
  MultiLoop(int num_loops, MultiLoopOptions options);
  ~MultiLoop();

  MultiLoop(const MultiLoop&) = delete;
  MultiLoop& operator=(const MultiLoop&) = delete;

  int num_loops() const { return static_cast<int>(loops_.size()); }
  int threads() const { return options_.threads; }
  SimDuration lookahead() const { return options_.lookahead; }
  EventLoop& loop(int i) { return *loops_[i]; }

  // Virtual time of the most recent barrier (all loop clocks are >= this).
  SimTime Now() const { return barrier_now_; }

  // Checks a cross-loop delay against the lookahead floor. Callers that
  // accept latencies from configuration should validate with this before
  // sending; Send() aborts on violation (a delay below the lookahead would
  // deliver into an epoch that already ran, silently diverging from a
  // single-loop run).
  Status CheckDelay(SimDuration delay) const;

  // Schedules `cb` to run on loop `to` at loop(from).Now() + delay. May be
  // called from the sending loop's callbacks during an epoch step, from a
  // barrier hook, or while the engine is idle (setup). Messages between the
  // same (from, to) pair with the same delay deliver in send order.
  void Send(int from, int to, SimDuration delay, SmallFn cb);

  // Runs `hook` once at the first barrier whose time G >= when, with every
  // loop quiesced and every clock advanced to exactly max(when, G). Hook
  // times bound the barrier like events do, so an otherwise idle simulation
  // still fires hooks at their requested times. This is the sanctioned way
  // to read or mutate cross-loop state mid-run (control-plane steps,
  // mid-run stat sampling).
  void ScheduleBarrierAt(SimTime when, std::function<void()> hook);

  // Runs epochs until every event with timestamp <= deadline has
  // dispatched, then advances all clocks to `deadline` (mirrors
  // EventLoop::RunUntil, including the idle-advance and the inclusive
  // deadline). Returns events dispatched.
  uint64_t RunUntil(SimTime deadline);

  // Runs epochs until no events, messages, or hooks remain (mirrors
  // EventLoop::Run).
  uint64_t Run();

  uint64_t epochs() const { return epochs_; }
  uint64_t messages_sent() const { return messages_sent_; }

 private:
  struct Message {
    SimTime when;
    uint32_t from;
    uint32_t to;
    uint64_t seq;  // per-sender send order
    SmallFn cb;
  };
  struct Outbox {
    std::vector<Message> msgs;
    uint64_t next_seq = 0;
    // Outboxes are written by whichever worker steps the owning loop; pad
    // to a cache line so neighbors do not false-share.
    char pad[64];
  };
  struct Hook {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
  };

  uint64_t RunEpochs(bool bounded, SimTime deadline);
  void Exchange();
  std::optional<SimTime> NextBarrierTime();
  void RunDueHooks(SimTime barrier);
  uint64_t StepAll(SimTime horizon);
  void StepWorker();
  void WorkerMain();

  MultiLoopOptions options_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<Outbox> outbox_;
  std::vector<Hook> hooks_;
  uint64_t hook_seq_ = 0;
  SimTime barrier_now_ = 0;
  uint64_t epochs_ = 0;
  uint64_t messages_sent_ = 0;

  // Worker pool (created only when threads > 1): workers park on cv_start_
  // between epochs; an epoch publishes its horizon under mu_, workers claim
  // loops by atomic index, and the caller waits on cv_done_. The mutex
  // hand-offs order each epoch's loop state (and outbox writes) before the
  // next barrier's reads.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint64_t epoch_gen_ = 0;
  int workers_running_ = 0;
  bool shutdown_ = false;
  SimTime step_horizon_ = 0;
  std::atomic<int> next_loop_{0};
  std::atomic<uint64_t> step_dispatched_{0};
};

}  // namespace libra::sim

#endif  // LIBRA_SRC_SIM_MULTI_LOOP_H_
