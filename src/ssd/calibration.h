// Device calibration: the benchmarking step the paper prescribes (§4.3,
// "Determining the VOP cost model ... requires benchmarking the storage
// system") before a Libra deployment. Runs pure read/write closed-loop
// sweeps across IOP sizes at queue depth 32 and records the achieved IOPS;
// the resulting table is the input to the exact VOP cost model and Fig. 3.

#ifndef LIBRA_SRC_SSD_CALIBRATION_H_
#define LIBRA_SRC_SSD_CALIBRATION_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/ssd/io_types.h"
#include "src/ssd/profile.h"

namespace libra::ssd {

struct CalibrationOptions {
  SimDuration warmup = 500 * kMillisecond;
  SimDuration measure = 2 * kSecond;
  int queue_depth = 32;  // kSsdQueueDepth in the paper's experiments
  uint64_t working_set_bytes = 1ULL * kGiB;
  uint64_t seed = 42;
};

struct CalibrationTable {
  std::vector<uint32_t> sizes_kb;  // probed IOP sizes
  std::vector<double> rand_read_iops;
  std::vector<double> rand_write_iops;
  std::vector<double> seq_read_iops;
  std::vector<double> seq_write_iops;

  // The VOP normalizer Max-IOP: the highest achieved IOPS over the random
  // curves (in practice the smallest random read size).
  double max_iops() const;

  // Achieved random IOPS at an arbitrary size, log-interpolated between
  // probed points (clamped at the ends).
  double RandReadIops(uint32_t size_bytes) const;
  double RandWriteIops(uint32_t size_bytes) const;
};

// Runs the full sweep for `profile`: 4 probes (random/sequential x
// read/write) per size in kSweepSizesKb, each warmup + measure of simulated
// time. The working set is preconditioned once; every probe starts from a
// copy of that FTL, and the probes run in parallel on up to
// std::thread::hardware_concurrency() threads. The table equals the one
// MeasureIops gives point by point, for any thread count.
CalibrationTable Calibrate(const DeviceProfile& profile,
                           const CalibrationOptions& options = {});

// Single-point probe: achieved IOPS for a pure workload of `size` bytes, on
// a device freshly preconditioned over the working set.
double MeasureIops(const DeviceProfile& profile, IoType type, uint32_t size,
                   bool sequential, const CalibrationOptions& options = {});

}  // namespace libra::ssd

#endif  // LIBRA_SRC_SSD_CALIBRATION_H_
