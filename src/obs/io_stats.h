// Per-class IO lifecycle statistics: the pair of histograms the scheduler
// keeps for every (app request, internal op) class of every tenant.
//
//   queue_wait — submit to first chunk dispatch: time an op spent parked in
//                its tenant's DRR queue, i.e. deliberate Libra throttling
//                (plus device queue-depth backpressure).
//   service    — first dispatch to last chunk completion: device time,
//                including chunk serialization for ops > chunk_bytes.
//
// Counters are plain arithmetic; a histogram grows by a 128-byte octave chunk
// the first time a sample lands in that octave and never again, so
// steady-state recording on the scheduler's hot path does not allocate.

#ifndef LIBRA_SRC_OBS_IO_STATS_H_
#define LIBRA_SRC_OBS_IO_STATS_H_

#include <cstdint>

#include "src/obs/histogram.h"

namespace libra::obs {

struct IoClassStats {
  LatencyHistogram queue_wait;
  LatencyHistogram service;
  uint64_t ops = 0;
  uint64_t chunks = 0;
  uint64_t bytes = 0;

  void RecordOp(uint64_t queue_wait_ns, uint64_t service_ns,
                uint32_t op_chunks, uint64_t op_bytes) {
    queue_wait.Record(queue_wait_ns);
    service.Record(service_ns);
    ++ops;
    chunks += op_chunks;
    bytes += op_bytes;
  }

  void Merge(const IoClassStats& other) {
    queue_wait.Merge(other.queue_wait);
    service.Merge(other.service);
    ops += other.ops;
    chunks += other.chunks;
    bytes += other.bytes;
  }
};

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_IO_STATS_H_
