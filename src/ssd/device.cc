#include "src/ssd/device.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace libra::ssd {

SsdDevice::SsdDevice(sim::EventLoop& loop, const DeviceProfile& profile,
                     DeviceOptions options)
    : SsdDevice(loop, Ftl(profile), options) {}

SsdDevice::SsdDevice(sim::EventLoop& loop, Ftl ftl, DeviceOptions options)
    : loop_(loop),
      profile_(ftl.profile()),
      options_(options),
      ftl_(std::move(ftl)),
      die_free_at_(profile_.num_dies, 0),
      die_last_type_(profile_.num_dies, IoType::kRead),
      die_order_(profile_.num_dies) {
  for (int d = 0; d < profile_.num_dies; ++d) {
    die_order_[d] = d;
  }
  stream_ends_.fill(UINT64_MAX);
  qd_start_time_ = loop_.Now();
  qd_last_change_ = qd_start_time_;
}

void SsdDevice::UpdateInflight(int delta) {
  const SimTime now = loop_.Now();
  qd_integral_ += static_cast<double>(inflight_) *
                  static_cast<double>(now - qd_last_change_);
  qd_last_change_ = now;
  inflight_ += delta;
}

SsdDevice::PageSpan SsdDevice::SpanOf(const IoRequest& req) const {
  assert(req.size > 0);
  const uint64_t first = req.offset / profile_.page_bytes;
  const uint64_t last = (req.offset + req.size - 1) / profile_.page_bytes;
  return PageSpan{first, static_cast<uint32_t>(last - first + 1)};
}

bool SsdDevice::DetectSequential(const IoRequest& req) {
  bool seq = false;
  if (options_.enable_seq_detection) {
    for (uint64_t end : stream_ends_) {
      if (end == req.offset && end != UINT64_MAX) {
        seq = true;
        break;
      }
    }
  }
  stream_ends_[stream_cursor_] = req.offset + req.size;
  stream_cursor_ = (stream_cursor_ + 1) % kMaxStreams;
  return seq;
}

SimTime SsdDevice::OccupyDie(int die, IoType type, SimDuration busy,
                             SimTime earliest) {
  SimTime start = std::max(earliest, die_free_at_[die]);
  if (options_.enable_rw_switch_penalty && die_last_type_[die] != type) {
    start += profile_.rw_switch_penalty_ns;
  }
  die_last_type_[die] = type;
  die_free_at_[die] = start + busy;
  return die_free_at_[die];
}

SimDuration SsdDevice::GcPageCost() const {
  // Internal copyback: read + program of one page with command latencies
  // partially pipelined (25% of the host-visible command cost).
  const double bytes = static_cast<double>(profile_.page_bytes);
  const SimDuration transfer =
      static_cast<SimDuration>(bytes / profile_.die_read_bw * 1e9) +
      static_cast<SimDuration>(bytes / profile_.die_write_bw * 1e9);
  return transfer + (profile_.die_read_latency_ns + profile_.die_write_latency_ns) / 4;
}

void SsdDevice::Submit(const IoRequest& req, CompletionFn done) {
  assert(req.size > 0);
  const PageSpan span = SpanOf(req);
  const bool seq = DetectSequential(req);

  UpdateInflight(+1);

  // Controller admission.
  const SimTime t_submit = loop_.Now();
  const SimDuration ctrl_cost =
      (req.type == IoType::kRead ? profile_.ctrl_read_op_ns
                                 : profile_.ctrl_write_op_ns) +
      static_cast<SimDuration>(span.npages) * profile_.ctrl_page_ns;
  const SimTime ctrl_start = std::max(t_submit, ctrl_free_at_);
  ctrl_free_at_ = ctrl_start + ctrl_cost;
  const SimTime ctrl_done = ctrl_free_at_;

  SimTime completion = ctrl_done;

  if (req.type == IoType::kRead) {
    // Dies: chunked over the stripes the extent covers.
    const uint64_t stripes =
        (span.npages + profile_.stripe_pages - 1) / profile_.stripe_pages;
    const int d_used = static_cast<int>(
        std::min<uint64_t>(stripes, static_cast<uint64_t>(profile_.num_dies)));
    const int start_die = static_cast<int>(
        (span.first_page / profile_.stripe_pages) %
        static_cast<uint64_t>(profile_.num_dies));
    const double chunk_bytes =
        static_cast<double>(req.size) / static_cast<double>(d_used);
    const SimDuration die_busy =
        static_cast<SimDuration>(
            static_cast<double>(profile_.die_read_latency_ns) *
            (seq ? profile_.seq_read_latency_factor : 1.0)) +
        static_cast<SimDuration>(chunk_bytes / profile_.die_read_bw * 1e9);
    SimTime dies_done = ctrl_done;
    for (int i = 0; i < d_used; ++i) {
      const int die = (start_die + i) % profile_.num_dies;
      dies_done = std::max(
          dies_done, OccupyDie(die, IoType::kRead, die_busy, ctrl_done));
    }
    // Bus capacity is reserved in submission order at admission time (the
    // transfer physically happens after the die reads, but reserving it at
    // dies_done would let one slow op's die latency convoy every later op's
    // bus slot). The op completes once both dies and its bus share are done.
    const SimTime bus_start = std::max(ctrl_done, bus_free_at_);
    const SimDuration bus_busy =
        profile_.bus_op_ns +
        static_cast<SimDuration>(static_cast<double>(req.size) / profile_.bus_bw * 1e9);
    bus_free_at_ = bus_start + bus_busy;
    completion = std::max(dies_done, bus_free_at_);
  } else {
    // Bus transfer of the data from the host, then NAND programs.
    const SimTime bus_start = std::max(ctrl_done, bus_free_at_);
    const SimDuration bus_busy =
        profile_.bus_op_ns +
        static_cast<SimDuration>(static_cast<double>(req.size) / profile_.bus_bw * 1e9);
    bus_free_at_ = bus_start + bus_busy;
    const SimTime data_ready = bus_free_at_;

    // Firmware programs whichever dies are available first: rank dies by
    // earliest availability so placement fills idle dies (the behavior the
    // calibration curves price in for every workload alike). The order is
    // total, so sorting the last write's order gives the same result as
    // sorting the identity.
    std::sort(die_order_.begin(), die_order_.end(), [this](int a, int b) {
      if (die_free_at_[a] != die_free_at_[b]) {
        return die_free_at_[a] < die_free_at_[b];
      }
      return a < b;
    });
    FtlWriteResult placement =
        ftl_.Write(span.first_page, span.npages, &die_order_);
    SimTime dies_done = data_ready;
    for (const DiePlacement& p : placement.placements) {
      const SimDuration die_busy =
          static_cast<SimDuration>(
              static_cast<double>(profile_.die_write_latency_ns) *
              (seq ? profile_.seq_write_latency_factor : 1.0)) +
          static_cast<SimDuration>(static_cast<double>(p.pages) *
                                   profile_.page_bytes / profile_.die_write_bw * 1e9);
      dies_done = std::max(
          dies_done, OccupyDie(p.die, IoType::kWrite, die_busy, data_ready));
    }
    // Durable once every program completes (O_SYNC discipline).
    completion = dies_done;

    // GC runs behind the host write on the affected dies.
    if (options_.enable_gc) {
      const SimDuration page_cost = GcPageCost();
      for (const GcWork& gc : placement.gc) {
        const SimDuration gc_busy =
            static_cast<SimDuration>(gc.pages_moved) * page_cost +
            static_cast<SimDuration>(gc.erases) * profile_.erase_ns;
        die_free_at_[gc.die] += gc_busy;
      }
    }
  }

  assert(completion >= t_submit);
  const uint32_t idx = AllocPending();
  PendingIo& pending = pending_[idx];
  pending.done = std::move(done);
  pending.type = req.type;
  pending.size = req.size;
  loop_.ScheduleAt(completion, [this, idx] { CompleteIo(idx); });
}

uint32_t SsdDevice::AllocPending() {
  if (pending_free_ != kNilPending) {
    const uint32_t idx = pending_free_;
    pending_free_ = pending_[idx].next_free;
    return idx;
  }
  pending_.emplace_back();
  return static_cast<uint32_t>(pending_.size() - 1);
}

void SsdDevice::CompleteIo(uint32_t index) {
  UpdateInflight(-1);
  // Move the callback out before recycling: it may submit a new IO and
  // reuse (or grow) the pending table.
  CompletionFn done = std::move(pending_[index].done);
  if (pending_[index].type == IoType::kRead) {
    ++reads_completed_;
    read_bytes_ += pending_[index].size;
  } else {
    ++writes_completed_;
    write_bytes_ += pending_[index].size;
  }
  pending_[index].next_free = pending_free_;
  pending_free_ = index;
  done();
}

sim::Task<void> SsdDevice::SubmitAwait(IoRequest req) {
  sim::OneShot<bool> completion(loop_);
  Submit(req, [&completion] { completion.Set(true); });
  co_await completion.Wait();
}

void SsdDevice::Trim(uint64_t offset, uint32_t size) {
  if (size == 0) {
    return;
  }
  // Only whole pages fully covered by the extent are reclaimed.
  const uint64_t first = (offset + profile_.page_bytes - 1) / profile_.page_bytes;
  const uint64_t end = (offset + size) / profile_.page_bytes;
  if (end > first) {
    ftl_.Trim(first, static_cast<uint32_t>(end - first));
  }
}

DeviceStats SsdDevice::stats() const {
  DeviceStats s;
  s.reads_completed = reads_completed_;
  s.writes_completed = writes_completed_;
  s.read_bytes = read_bytes_;
  s.write_bytes = write_bytes_;
  s.gc_pages_moved = ftl_.gc_pages_moved();
  s.blocks_erased = ftl_.blocks_erased();
  s.write_amp = ftl_.write_amp();
  const SimTime now = loop_.Now();
  const double elapsed = static_cast<double>(now - qd_start_time_);
  if (elapsed > 0.0) {
    const double integral =
        qd_integral_ + static_cast<double>(inflight_) *
                           static_cast<double>(now - qd_last_change_);
    s.avg_queue_depth = integral / elapsed;
  }
  return s;
}

}  // namespace libra::ssd
