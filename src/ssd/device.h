// Discrete-event SSD device model.
//
// An IO op flows through three resources whose contention produces the
// paper's non-linear performance (§3.3, Fig. 3) and interference (§3.2,
// Fig. 4):
//
//   controller  — single firmware pipeline; per-op + per-page cost. Binds
//                 throughput for small ops (the IOPS ceiling).
//   dies        — num_dies parallel NAND units. Reads go to the dies their
//                 stripes live on; writes go where the FTL's append points
//                 place them. Programs are much longer than reads, and a die
//                 switching between read and write service pays a penalty —
//                 together the source of read/write interference. GC work
//                 (valid-page relocation + erase) also occupies dies.
//   bus         — shared host link (SATA); serializes data transfer and
//                 binds throughput for large ops (the bandwidth ceiling).
//
// Timing uses resource reservation: at submit, the op's occupancy of each
// resource is computed against per-resource "free-at" clocks and a single
// completion event is scheduled. This keeps the simulator at O(dies) work
// and one event per IO, so a 400-second experiment replays in seconds.
//
// The device does not enforce a queue depth; the Libra scheduler dispatches
// at most kSsdQueueDepth (32) concurrent ops, matching the paper's setup.

#ifndef LIBRA_SRC_SSD_DEVICE_H_
#define LIBRA_SRC_SSD_DEVICE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/sim/event_loop.h"
#include "src/sim/small_fn.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/ssd/ftl.h"
#include "src/ssd/io_types.h"
#include "src/ssd/profile.h"

namespace libra::ssd {

// The paper runs all experiments at SSD queue depth 32.
inline constexpr int kSsdQueueDepth = 32;

struct DeviceOptions {
  // Ablation switches (DESIGN.md §5): disable to show which mechanism
  // produces which evaluation artifact.
  bool enable_gc = true;
  bool enable_rw_switch_penalty = true;
  bool enable_seq_detection = true;
};

struct DeviceStats {
  uint64_t reads_completed = 0;
  uint64_t writes_completed = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t gc_pages_moved = 0;
  uint64_t blocks_erased = 0;
  double write_amp = 1.0;
  // Time-weighted average of in-flight ops since device construction.
  double avg_queue_depth = 0.0;
};

class SsdDevice {
 public:
  // Inline-storage callback: completions are pooled in the device (see
  // pending_ below), so submitting an IO performs no heap allocation.
  using CompletionFn = sim::SmallFn;

  SsdDevice(sim::EventLoop& loop, const DeviceProfile& profile,
            DeviceOptions options = {});
  // Starts from `ftl`'s state (e.g. a copy of a preconditioned FTL) and
  // takes its profile from it.
  SsdDevice(sim::EventLoop& loop, Ftl ftl, DeviceOptions options = {});

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  // Submits an IO; `done` runs (via the event loop) when it completes.
  void Submit(const IoRequest& req, CompletionFn done);

  // Awaitable convenience used by calibration and tests; the scheduler uses
  // the callback form.
  sim::Task<void> SubmitAwait(IoRequest req);

  // Marks a logical extent as dead (filesystem TRIM on delete).
  void Trim(uint64_t offset, uint32_t size);

  // Ftl::Prefill without consuming simulated time.
  void Prefill(uint64_t bytes) { ftl_.Prefill(bytes); }

  int inflight() const { return inflight_; }
  const DeviceProfile& profile() const { return profile_; }
  const Ftl& ftl() const { return ftl_; }
  DeviceStats stats() const;

 private:
  struct PageSpan {
    uint64_t first_page;
    uint32_t npages;
  };
  PageSpan SpanOf(const IoRequest& req) const;

  // Returns true (and records the stream) when `req` continues one of the
  // recently seen access streams.
  bool DetectSequential(const IoRequest& req);

  // Occupies a die for `busy` starting no earlier than `earliest`; applies
  // the read/write switch penalty. Returns the finish time.
  SimTime OccupyDie(int die, IoType type, SimDuration busy, SimTime earliest);

  SimDuration GcPageCost() const;

  // In-flight completion records, recycled through a free list. The
  // completion event captures only {this, index}, which fits the event
  // loop's inline callback storage; the record itself holds the caller's
  // callback and the fields the completion path needs. Live records are
  // bounded by the in-flight IO count (the scheduler's queue depth).
  struct PendingIo {
    CompletionFn done;
    IoType type = IoType::kRead;
    uint32_t size = 0;
    uint32_t next_free = 0;
  };
  uint32_t AllocPending();
  void CompleteIo(uint32_t index);

  sim::EventLoop& loop_;
  DeviceProfile profile_;
  DeviceOptions options_;
  Ftl ftl_;

  SimTime ctrl_free_at_ = 0;
  SimTime bus_free_at_ = 0;
  std::vector<SimTime> die_free_at_;
  std::vector<IoType> die_last_type_;
  // Dies ranked by availability for the current write (reused by Submit).
  std::vector<int> die_order_;

  // Ring of recent stream end-offsets for sequentiality detection.
  static constexpr int kMaxStreams = 16;
  std::array<uint64_t, kMaxStreams> stream_ends_{};
  int stream_cursor_ = 0;

  // Advances the queue-depth time integral to now, then applies `delta`.
  void UpdateInflight(int delta);

  std::vector<PendingIo> pending_;
  uint32_t pending_free_ = kNilPending;
  static constexpr uint32_t kNilPending = 0xFFFFFFFFu;

  int inflight_ = 0;
  // Queue-depth integral: sum of inflight * dt since construction, for the
  // time-weighted average depth reported in stats().
  SimTime qd_start_time_ = 0;
  SimTime qd_last_change_ = 0;
  double qd_integral_ = 0.0;
  uint64_t reads_completed_ = 0;
  uint64_t writes_completed_ = 0;
  uint64_t read_bytes_ = 0;
  uint64_t write_bytes_ = 0;
};

}  // namespace libra::ssd

#endif  // LIBRA_SRC_SSD_DEVICE_H_
