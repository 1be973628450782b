#include "src/lsm/wal.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace libra::lsm {

WriteAheadLog::WriteAheadLog(fs::SimFs& fs, std::string filename,
                             WalOptions options, WalCounters* counters)
    : fs_(fs),
      filename_(std::move(filename)),
      options_(options),
      counters_(counters) {}

Status WriteAheadLog::Open() {
  if (fs_.Exists(filename_)) {
    auto open = fs_.Open(filename_);
    if (!open.ok()) {
      return open.status();
    }
    file_ = *open;
    return Status::Ok();
  }
  auto created = fs_.Create(filename_);
  if (!created.ok()) {
    return created.status();
  }
  file_ = *created;
  return Status::Ok();
}

sim::Task<Status> WriteAheadLog::Append(const iosched::IoTag& tag,
                                        std::string_view key,
                                        SequenceNumber seq, ValueType type,
                                        std::string_view value) {
  // One buffer per frame: the payload is encoded after a reserved header,
  // which is filled in once the payload's length and CRC are known.
  std::string frame;
  frame.reserve(8 + EncodedRecordBytes(key, value));
  frame.resize(8);
  EncodeRecord(&frame, key, seq, type, value);
  const std::string_view payload = std::string_view(frame).substr(8);
  EncodeFixed32(frame.data(), static_cast<uint32_t>(payload.size()));
  EncodeFixed32(frame.data() + 4, Crc32(payload));
  if (counters_ != nullptr) {
    ++counters_->appends;
  }
  if (options_.group_commit) {
    co_return co_await AppendBatched(tag, std::move(frame));
  }
  co_return co_await fs_.Append(file_, tag, frame);
}

sim::Task<Status> WriteAheadLog::AppendBatched(iosched::IoTag tag,
                                               std::string frame) {
  sim::OneShot<Status> done(fs_.scheduler().loop());
  ++inflight_;
  pending_.push_back(Pending{std::move(frame), tag, &done});
  // Single-threaded coroutine interleaving makes this check-and-claim
  // race-free: whoever finds no sync in flight becomes the leader and
  // drains the queue; everyone else just waits for their ack.
  if (!sync_inflight_) {
    sync_inflight_ = true;
    while (!pending_.empty()) {
      // Form a bounded batch from the queue head. The first record is
      // always taken (a single frame may exceed the byte cap on its own).
      std::string batch;
      std::vector<iosched::IoShare> manifest;
      std::vector<sim::OneShot<Status>*> members;
      while (!pending_.empty()) {
        const Pending& head = pending_.front();
        if (!members.empty() &&
            (batch.size() + head.frame.size() > options_.group_max_bytes ||
             members.size() >= options_.group_max_records)) {
          break;
        }
        manifest.push_back(
            {head.tag, static_cast<uint32_t>(head.frame.size())});
        batch += head.frame;
        members.push_back(head.done);
        pending_.pop_front();
      }
      if (counters_ != nullptr) {
        ++counters_->batches;
        counters_->batched_records += members.size();
        counters_->max_batch_records = std::max(
            counters_->max_batch_records,
            static_cast<uint64_t>(members.size()));
      }
      // One shared durable append for the whole batch; each member's tag
      // is charged its byte share of the merged IOP's VOP cost.
      const Status s =
          co_await fs_.AppendShared(file_, std::move(manifest), batch);
      // Ack only after durability (the crash-recovery contract); members
      // resume in arrival order. Records that queued during the sync are
      // drained by the next loop iteration.
      for (sim::OneShot<Status>* d : members) {
        d->Set(s);
      }
    }
    sync_inflight_ = false;
  }
  // The leader's own slot was acked inside its loop (set-before-wait).
  const Status result = co_await done.Wait();
  if (--inflight_ == 0 && idle_waiter_) {
    auto h = std::exchange(idle_waiter_, std::coroutine_handle<>{});
    fs_.scheduler().loop().Post([h] { h.resume(); });
  }
  co_return result;
}

sim::Task<void> WriteAheadLog::WaitIdle() {
  while (inflight_ > 0) {
    co_await IdleAwaiter{this};
  }
}

Status WriteAheadLog::Replay(
    const std::function<void(const Record&)>& fn) const {
  if (file_ == fs::kInvalidFile) {
    return Status::FailedPrecondition("log not open");
  }
  // Recovery happens once per DB open, before the node serves traffic, so
  // it reads the raw contents host-side instead of charging a tenant.
  std::string data;
  if (Status s = fs_.PeekContents(file_, &data); !s.ok()) {
    return s;
  }
  size_t offset = 0;
  while (offset + 8 <= data.size()) {
    const uint32_t len = GetFixed32(data, offset);
    const uint32_t crc = GetFixed32(data, offset + 4);
    if (offset + 8 + len > data.size()) {
      break;  // torn tail
    }
    const std::string_view payload(data.data() + offset + 8, len);
    if (Crc32(payload) != crc) {
      break;  // corruption: stop replay
    }
    size_t rec_off = 0;
    Record rec;
    if (!DecodeRecord(payload, &rec_off, &rec)) {
      break;
    }
    fn(rec);
    offset += 8 + len;
  }
  return Status::Ok();
}

Status WriteAheadLog::Remove() {
  file_ = fs::kInvalidFile;
  return fs_.Delete(filename_);
}

}  // namespace libra::lsm
