#include "src/iosched/capacity.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/ssd/device.h"

namespace libra::iosched {
namespace {

struct ProbeCell {
  double read_frac;
  uint32_t read_kb;
  uint32_t write_kb;
  double sigma_bytes = 0.0;
};

sim::Task<void> ProbeWorker(sim::EventLoop& loop, IoScheduler& sched,
                            TenantId tenant, ProbeCell cell, uint64_t ws,
                            Rng& rng, SimTime end_time) {
  const LogNormalSize read_dist(cell.read_kb * 1024.0, cell.sigma_bytes, 1024,
                                1024 * 1024);
  const LogNormalSize write_dist(cell.write_kb * 1024.0, cell.sigma_bytes,
                                 1024, 1024 * 1024);
  while (loop.Now() < end_time) {
    const bool is_read = rng.Bernoulli(cell.read_frac);
    const uint32_t size = static_cast<uint32_t>(
        is_read ? read_dist.Sample(rng) : write_dist.Sample(rng));
    const uint64_t slots = std::max<uint64_t>(1, ws / size);
    const uint64_t offset = rng.NextU64(slots) * size;
    IoTag tag{.tenant = tenant,
              .app = is_read ? AppRequest::kGet : AppRequest::kPut};
    if (is_read) {
      co_await sched.Read(tag, offset, size);
    } else {
      co_await sched.Write(tag, offset, size);
    }
  }
}

// One probe cell on a device that starts from `ftl`, an FTL preconditioned
// over the working set `ws`.
double RunCell(ssd::Ftl ftl, uint64_t ws, const ssd::CalibrationTable& table,
               const ProbeCell& cell, const FloorProbeOptions& options) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, std::move(ftl));
  IoScheduler sched(loop, device, std::make_unique<ExactCostModel>(table));

  Rng rng(options.seed);
  const SimTime end_time = options.warmup + options.measure;
  double vops_at_warmup = 0.0;
  {
    sim::TaskGroup group(loop);
    for (int t = 0; t < options.num_tenants; ++t) {
      sched.SetAllocation(t, 1000.0);  // equal allocations
      for (int w = 0; w < options.workers_per_tenant; ++w) {
        group.Spawn(ProbeWorker(loop, sched, static_cast<TenantId>(t), cell,
                                ws, rng, end_time));
      }
    }
    loop.ScheduleAt(options.warmup, [&] {
      vops_at_warmup = sched.tracker().total_vops();
    });
    loop.Run();
  }
  // Measure VOPs consumed in the measurement window (tail completions after
  // end_time are a negligible +queue_depth ops).
  return (sched.tracker().total_vops() - vops_at_warmup) /
         ToSeconds(options.measure);
}

}  // namespace

double ProbeInterferenceFloor(const ssd::DeviceProfile& profile,
                              const ssd::CalibrationTable& table,
                              const FloorProbeOptions& options) {
  std::vector<double> fracs;
  std::vector<uint32_t> sizes_kb;
  if (options.full_grid) {
    fracs = {0.99, 0.75, 0.5, 0.25, 0.01};
    sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  } else {
    fracs = {0.75, 0.5, 0.25};
    sizes_kb = {1, 4, 16, 64, 256};
  }
  std::vector<ProbeCell> cells;
  for (double f : fracs) {
    for (uint32_t r : sizes_kb) {
      for (uint32_t w : sizes_kb) {
        cells.push_back({f, r, w});
      }
    }
    // Variable IOP sizes consistently degrade throughput (paper Fig. 4
    // bottom row); probe the high-variance regime too.
    for (double sigma : {32768.0, 262144.0}) {
      cells.push_back({f, 4, 4, sigma});
      cells.push_back({f, 1, 16, sigma});
    }
  }
  // Cells are independent and each starts from a copy of one preconditioned
  // FTL (equal to a fresh prefill), so they run in parallel; the floor is
  // the min over the per-cell slots.
  const uint64_t ws =
      std::min<uint64_t>(1ULL * kGiB, profile.capacity_bytes / 2);
  ssd::Ftl preconditioned(profile);
  preconditioned.Prefill(ws);
  std::vector<double> vops(cells.size());
  ParallelFor(static_cast<int>(std::thread::hardware_concurrency()),
              cells.size(), [&](size_t i) {
                vops[i] = RunCell(preconditioned, ws, table, cells[i], options);
              });
  return *std::min_element(vops.begin(), vops.end());
}

}  // namespace libra::iosched
