#include "src/lsm/wal.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace libra::lsm {

namespace {

constexpr uint64_t kFrameHeaderBytes = 8;  // [payload_len u32][crc u32]

uint64_t FrameBytes(const Record& r) {
  return kFrameHeaderBytes + EncodedRecordBytes(r.key, r.value);
}

// Writes `r`'s frame at `dst`: the payload after a header holding its
// length and the CRC of the stored payload. Returns the stored record.
Record EncodeFrame(char* dst, const Record& r) {
  const Record stored = EncodeRecordAt(dst + kFrameHeaderBytes, r.key, r.seq,
                                       r.type, r.value);
  const std::string_view payload(dst + kFrameHeaderBytes,
                                 FrameBytes(r) - kFrameHeaderBytes);
  EncodeFixed32(dst, static_cast<uint32_t>(payload.size()));
  EncodeFixed32(dst + 4, Crc32(payload));
  return stored;
}

}  // namespace

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

sim::Task<StatusOr<LoggedRecord>> WriteAheadLog::Append(
    const iosched::IoTag& tag, std::string_view key, SequenceNumber seq,
    ValueType type, std::string_view value) {
  const Record record{key, value, seq, type};
  if (counters_ != nullptr) {
    ++counters_->appends;
  }
  if (options_.group_commit) {
    co_return co_await AppendBatched(tag, record);
  }
  LoggedRecord logged;
  const auto encode = [&record, &logged](char* dst) {
    logged.record = EncodeFrame(dst, record);
  };
  StatusOr<fs::StoredBytes> stored =
      co_await fs_.Append(file_, tag, FrameBytes(record), encode);
  if (!stored.ok()) {
    co_return stored.status();
  }
  logged.pin = std::move(stored->pin);
  co_return logged;
}

sim::Task<StatusOr<LoggedRecord>> WriteAheadLog::AppendBatched(
    iosched::IoTag tag, Record record) {
  sim::OneShot<Status> done(fs_.scheduler().loop());
  LoggedRecord logged;
  ++inflight_;
  pending_.push_back(Pending{record, tag, &done, &logged});
  // Single-threaded coroutine interleaving makes this check-and-claim
  // race-free: whoever finds no sync in flight becomes the leader and
  // drains the queue; everyone else just waits for their ack.
  if (!sync_inflight_) {
    sync_inflight_ = true;
    while (!pending_.empty()) {
      // Form a bounded batch from the queue head. The first record is
      // always taken (a single frame may exceed the byte cap on its own).
      uint64_t batch_bytes = 0;
      std::vector<iosched::IoShare> manifest;
      std::vector<Pending> members;
      while (!pending_.empty()) {
        const Pending& head = pending_.front();
        const uint64_t frame_bytes = FrameBytes(head.record);
        if (!members.empty() &&
            (batch_bytes + frame_bytes > options_.group_max_bytes ||
             members.size() >= options_.group_max_records)) {
          break;
        }
        manifest.push_back({head.tag, static_cast<uint32_t>(frame_bytes)});
        batch_bytes += frame_bytes;
        members.push_back(head);
        pending_.pop_front();
      }
      if (counters_ != nullptr) {
        ++counters_->batches;
        counters_->batched_records += members.size();
        counters_->max_batch_records = std::max(
            counters_->max_batch_records,
            static_cast<uint64_t>(members.size()));
      }
      // One shared durable append for the whole batch, every member's
      // frame encoded into the log in queue order; each member's tag is
      // charged its byte share of the merged IOP's VOP cost.
      const auto encode = [&members](char* dst) {
        for (const Pending& m : members) {
          m.stored->record = EncodeFrame(dst, m.record);
          dst += FrameBytes(m.record);
        }
      };
      StatusOr<fs::StoredBytes> stored = co_await fs_.AppendShared(
          file_, std::move(manifest), batch_bytes, encode);
      // Ack only after durability (the crash-recovery contract); members
      // resume in arrival order. Records that queued during the sync are
      // drained by the next loop iteration.
      for (const Pending& m : members) {
        if (stored.ok()) {
          m.stored->pin = stored->pin;
        }
        m.done->Set(stored.status());
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
  if (!result.ok()) {
    co_return result;
  }
  co_return logged;
}

sim::Task<void> WriteAheadLog::WaitIdle() {
  while (inflight_ > 0) {
    co_await IdleAwaiter{this};
  }
}

Status WriteAheadLog::Replay(
    const std::function<void(const LoggedRecord&)>& fn) const {
  if (file_ == fs::kInvalidFile) {
    return Status::FailedPrecondition("log not open");
  }
  // Recovery happens once per DB open, before the node serves traffic, so
  // it views the stored bytes host-side instead of charging a tenant.
  const uint64_t size = fs_.SizeOf(file_);
  uint64_t offset = 0;
  while (offset + kFrameHeaderBytes <= size) {
    StatusOr<fs::StoredBytes> header =
        fs_.PeekView(file_, offset, kFrameHeaderBytes);
    if (!header.ok()) {
      return header.status();
    }
    const uint32_t len = GetFixed32(header->bytes, 0);
    const uint32_t crc = GetFixed32(header->bytes, 4);
    if (offset + kFrameHeaderBytes + len > size) {
      break;  // torn tail
    }
    StatusOr<fs::StoredBytes> payload =
        fs_.PeekView(file_, offset + kFrameHeaderBytes, len);
    if (!payload.ok()) {
      return payload.status();
    }
    if (Crc32(payload->bytes) != crc) {
      break;  // corruption: stop replay
    }
    size_t rec_off = 0;
    LoggedRecord rec;
    if (!DecodeRecord(payload->bytes, &rec_off, &rec.record)) {
      break;
    }
    rec.pin = std::move(payload->pin);
    fn(rec);
    offset += kFrameHeaderBytes + len;
  }
  return Status::Ok();
}

Status WriteAheadLog::Remove() {
  file_ = fs::kInvalidFile;
  return fs_.Delete(filename_);
}

}  // namespace libra::lsm
