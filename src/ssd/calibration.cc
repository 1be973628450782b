#include "src/ssd/calibration.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>
#include <utility>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/ssd/device.h"

namespace libra::ssd {
namespace {

// Interpolates IOPS at `size_bytes` from a probed (sizes_kb, iops) curve,
// linearly in log2(size) — the natural axis for these curves (Fig. 3).
double InterpolateIops(const std::vector<uint32_t>& sizes_kb,
                       const std::vector<double>& iops, uint32_t size_bytes) {
  assert(!sizes_kb.empty());
  const double kb = std::max(1.0, static_cast<double>(size_bytes) / 1024.0);
  // log2 is monotone, so the bracket is found on the sizes themselves.
  if (kb <= sizes_kb.front()) {
    return iops.front();
  }
  if (kb >= sizes_kb.back()) {
    return iops.back();
  }
  size_t i = 1;
  while (kb > sizes_kb[i]) {
    ++i;
  }
  const double x = std::log2(kb);
  const double xi = std::log2(static_cast<double>(sizes_kb[i]));
  const double xp = std::log2(static_cast<double>(sizes_kb[i - 1]));
  const double frac = (x - xp) / (xi - xp);
  return iops[i - 1] * (1.0 - frac) + iops[i] * frac;
}

struct ProbeState {
  uint64_t completed = 0;
  uint64_t measured = 0;
  bool measuring = false;
  uint64_t seq_cursor = 0;
};

sim::Task<void> Worker(sim::EventLoop& loop, SsdDevice& dev, IoType type,
                       uint32_t size, bool sequential, uint64_t working_set,
                       Rng& rng, ProbeState& state, SimTime end_time) {
  while (loop.Now() < end_time) {
    IoRequest req;
    req.type = type;
    req.size = size;
    if (sequential) {
      req.offset = state.seq_cursor % working_set;
      state.seq_cursor += size;
    } else {
      // Align random accesses to the op size to avoid page-split noise.
      const uint64_t slots = std::max<uint64_t>(1, working_set / size);
      req.offset = rng.NextU64(slots) * size;
    }
    co_await dev.SubmitAwait(req);
    ++state.completed;
    if (state.measuring) {
      ++state.measured;
    }
  }
}

uint64_t WorkingSet(const DeviceProfile& profile,
                    const CalibrationOptions& options) {
  return std::min(options.working_set_bytes, profile.capacity_bytes / 2);
}

Ftl Preconditioned(const DeviceProfile& profile,
                   const CalibrationOptions& options) {
  Ftl ftl(profile);
  ftl.Prefill(WorkingSet(profile, options));
  return ftl;
}

// One closed-loop probe on a device that starts from `ftl`, an FTL
// preconditioned over the working set.
double RunProbe(Ftl ftl, IoType type, uint32_t size, bool sequential,
                const CalibrationOptions& options) {
  sim::EventLoop loop;
  const uint64_t working_set = WorkingSet(ftl.profile(), options);
  SsdDevice dev(loop, std::move(ftl));

  Rng rng(options.seed);
  ProbeState state;
  const SimTime end_time = options.warmup + options.measure;
  {
    sim::TaskGroup group(loop);
    for (int w = 0; w < options.queue_depth; ++w) {
      group.Spawn(Worker(loop, dev, type, size, sequential, working_set, rng,
                         state, end_time));
    }
    loop.ScheduleAt(options.warmup, [&state] {
      state.measuring = true;
      state.measured = 0;
    });
    loop.ScheduleAt(end_time, [&state] { state.measuring = false; });
    loop.Run();
  }
  return static_cast<double>(state.measured) / ToSeconds(options.measure);
}

}  // namespace

double CalibrationTable::max_iops() const {
  double best = 0.0;
  for (double v : rand_read_iops) {
    best = std::max(best, v);
  }
  for (double v : rand_write_iops) {
    best = std::max(best, v);
  }
  return best;
}

double CalibrationTable::RandReadIops(uint32_t size_bytes) const {
  return InterpolateIops(sizes_kb, rand_read_iops, size_bytes);
}

double CalibrationTable::RandWriteIops(uint32_t size_bytes) const {
  return InterpolateIops(sizes_kb, rand_write_iops, size_bytes);
}

double MeasureIops(const DeviceProfile& profile, IoType type, uint32_t size,
                   bool sequential, const CalibrationOptions& options) {
  return RunProbe(Preconditioned(profile, options), type, size, sequential,
                  options);
}

CalibrationTable Calibrate(const DeviceProfile& profile,
                           const CalibrationOptions& options) {
  // Every probe starts from a copy of one preconditioned FTL, which equals a
  // fresh prefill (DESIGN.md §8), and depends only on its index, so the
  // probes run in parallel and the table is the serial sweep's.
  const Ftl preconditioned = Preconditioned(profile, options);
  // Per size, in sweep order: random read, random write, sequential read,
  // sequential write.
  constexpr size_t kProbesPerSize = 4;
  std::vector<double> iops(kNumSweepSizes * kProbesPerSize);
  ParallelFor(static_cast<int>(std::thread::hardware_concurrency()),
              iops.size(), [&](size_t i) {
                const uint32_t size = kSweepSizesKb[i / kProbesPerSize] * 1024;
                const size_t kind = i % kProbesPerSize;
                iops[i] = RunProbe(preconditioned,
                                   kind % 2 == 0 ? IoType::kRead
                                                 : IoType::kWrite,
                                   size, /*sequential=*/kind >= 2, options);
              });
  CalibrationTable table;
  for (int s = 0; s < kNumSweepSizes; ++s) {
    const double* point = &iops[s * kProbesPerSize];
    table.sizes_kb.push_back(kSweepSizesKb[s]);
    table.rand_read_iops.push_back(point[0]);
    table.rand_write_iops.push_back(point[1]);
    table.seq_read_iops.push_back(point[2]);
    table.seq_write_iops.push_back(point[3]);
  }
  return table;
}

}  // namespace libra::ssd
