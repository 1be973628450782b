// Fan-out of independent jobs across a fixed pool of threads: the one
// worker pool behind the bench sweeps, device calibration and the
// interference-floor probe.

#ifndef LIBRA_SRC_COMMON_PARALLEL_H_
#define LIBRA_SRC_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace libra {

// Runs fn(i) for every i in [0, count) on min(jobs, count) threads that
// claim indices from an atomic counter in increasing order; returns once
// every claimed index has finished. jobs <= 1 (or count <= 1) runs inline on
// the calling thread, starting no thread. If fn throws, workers stop
// claiming new indices and the first exception is rethrown here after the
// pool joins. Output stays deterministic when fn(i) depends only on i and
// writes only its own result slot.
void ParallelFor(int jobs, size_t count,
                 const std::function<void(size_t)>& fn);

}  // namespace libra

#endif  // LIBRA_SRC_COMMON_PARALLEL_H_
