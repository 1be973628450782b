// Write-ahead log (paper §3.1): every PUT/DELETE is appended and synced
// before it is acknowledged, charging the tenant's direct PUT IO. The log
// is size-limited; when it fills, the memtable it protects is sealed and
// FLUSHed, and the log is deleted.
//
// Record frame: [payload_len u32][crc u32][payload], payload being the
// standard record encoding. Recovery replays records until truncation or a
// CRC mismatch (a torn tail write).
//
// Group commit (off by default — the paper's prototype syncs one IOP per
// PUT): appends that arrive while a sync is in flight queue up; the first
// queued writer becomes the batch leader and issues one shared device
// append for the whole queue (bounded by bytes/records), acknowledging
// every member when it lands. Records stay individually CRC-framed, so a
// batch torn mid-write replays as an intact prefix — acknowledged records
// are always replayable because acks only happen after the batch is
// durable. The shared append carries a per-record cost manifest so each
// rider is charged its byte-proportional share of the merged IOP.

#ifndef LIBRA_SRC_LSM_WAL_H_
#define LIBRA_SRC_LSM_WAL_H_

#include <cassert>
#include <coroutine>
#include <functional>
#include <string>

#include "src/common/status.h"
#include "src/fs/sim_fs.h"
#include "src/iosched/io_tag.h"
#include "src/lsm/format.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace libra::lsm {

struct WalOptions {
  bool group_commit = false;  // leader/follower sync batching
  // Batch bounds. A batch always accepts its first record even when that
  // record alone exceeds the byte cap.
  uint32_t group_max_bytes = 256 * 1024;
  uint32_t group_max_records = 64;
};

// A record as stored in the log: `record`'s key and value view the log
// file's bytes, which `pin` keeps alive past later appends, the log's
// removal and the filesystem's fault hooks.
struct LoggedRecord {
  Record record;
  fs::SegmentPin pin;
};

// Group-commit counters, owned by the caller (LsmDb) so they survive WAL
// rotation at memtable seal.
struct WalCounters {
  uint64_t appends = 0;          // records appended (any path)
  uint64_t batches = 0;          // device appends issued by leaders
  uint64_t batched_records = 0;  // records that rode those batches
  uint64_t max_batch_records = 0;
};

class WriteAheadLog {
 public:
  WriteAheadLog(fs::SimFs& fs, std::string filename, WalOptions options = {},
                WalCounters* counters = nullptr);

  // Creates (or truncates) the log file.
  Status Open();

  // Appends one record and waits until it is durable; returns it as
  // stored. The frame is encoded straight into the file. Concurrent appends
  // from different client tasks are safe; with group commit they coalesce
  // into shared device writes, otherwise their IO overlaps.
  sim::Task<StatusOr<LoggedRecord>> Append(const iosched::IoTag& tag,
                                           std::string_view key,
                                           SequenceNumber seq, ValueType type,
                                           std::string_view value);

  // Replays all intact records in file order, each viewing the file's
  // bytes. Stops at corruption (torn tail) without error — that is the
  // crash-recovery contract.
  Status Replay(const std::function<void(const LoggedRecord&)>& fn) const;

  // Deletes the log file (after a successful FLUSH).
  Status Remove();

  // Resolves once no batched append is in flight. A group-commit leader
  // suspended in its batch loop still touches the queue when the shared
  // write lands, so a rotated log must be drained before it is destroyed.
  sim::Task<void> WaitIdle();

  const std::string& filename() const { return filename_; }

 private:
  // One queued record awaiting a group commit. Its key and value view the
  // waiting writer's bytes until the leader encodes them into the log.
  struct Pending {
    Record record;
    iosched::IoTag tag;
    sim::OneShot<Status>* done;
    LoggedRecord* stored;  // where the leader hands back the stored record
  };

  // Group-commit path: enqueue the record; lead the batch loop if no sync
  // is in flight, else wait to be committed by the current leader.
  sim::Task<StatusOr<LoggedRecord>> AppendBatched(iosched::IoTag tag,
                                                  Record record);

  struct IdleAwaiter {
    WriteAheadLog* wal;
    bool await_ready() const noexcept { return wal->inflight_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(!wal->idle_waiter_ && "one WaitIdle waiter at a time");
      wal->idle_waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  fs::SimFs& fs_;
  std::string filename_;
  WalOptions options_;
  WalCounters* counters_;  // may be nullptr
  fs::FileId file_ = fs::kInvalidFile;
  sim::FifoQueue<Pending> pending_;
  bool sync_inflight_ = false;
  int inflight_ = 0;  // batched appends between enqueue and ack
  std::coroutine_handle<> idle_waiter_;
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_WAL_H_
