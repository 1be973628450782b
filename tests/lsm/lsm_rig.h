// Shared test rig for WAL/SSTable/LsmDb tests: event loop, device,
// scheduler with a fixed synthetic cost table, and SimFs.

#ifndef LIBRA_TESTS_LSM_LSM_RIG_H_
#define LIBRA_TESTS_LSM_LSM_RIG_H_

#include <memory>

#include "src/fs/sim_fs.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::lsm::testing {

inline ssd::CalibrationTable RigTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

struct LsmRig {
  sim::EventLoop loop;
  ssd::SsdDevice device{loop, ssd::Intel320Profile()};
  iosched::IoScheduler sched;
  fs::SimFs fs{sched, device};

  explicit LsmRig(iosched::SchedulerOptions sched_options = {})
      : sched(loop, device,
              std::make_unique<iosched::ExactCostModel>(RigTable()),
              sched_options) {
    sched.SetAllocation(1, 50000.0);
  }

  void RunTask(sim::Task<void> t) {
    sim::Detach(std::move(t));
    loop.Run();
  }
};

}  // namespace libra::lsm::testing

#endif  // LIBRA_TESTS_LSM_LSM_RIG_H_
