// In-memory write buffer: a skiplist over internal keys (user key asc,
// sequence desc). When it reaches the configured size it is sealed and
// FLUSHed to an L0 SSTable by a background task.
//
// Entries own no bytes: each views its record where the WAL stored it,
// and the memtable pins the WAL segments its entries view, so those bytes
// outlive the log's removal (DESIGN.md §8).

#ifndef LIBRA_SRC_LSM_MEMTABLE_H_
#define LIBRA_SRC_LSM_MEMTABLE_H_

#include <string_view>
#include <utility>
#include <vector>

#include "src/common/trace_context.h"
#include "src/fs/sim_fs.h"
#include "src/lsm/format.h"
#include "src/lsm/skiplist.h"

namespace libra::lsm {

class MemTable {
 public:
  // One entry, viewing bytes the memtable pins.
  struct Entry {
    std::string_view key;
    std::string_view value;
    SequenceNumber seq = 0;
    ValueType type = ValueType::kPut;
    // Insertion rank within this memtable (the entry count before it
    // landed); an Iterator hides entries at or past its opening count.
    uint32_t ordinal = 0;
    // Span of the app request that wrote this entry; lets the FLUSH that
    // later persists it emit a span causally linked to the requests whose
    // bytes it moves. Invalid (zero) when the writer was untraced.
    TraceContext origin;
  };

  struct EntryComparator {
    int operator()(const Entry& a, const Entry& b) const {
      return CompareInternalKey(a.key, a.seq, b.key, b.seq);
    }
  };

  MemTable() : table_(EntryComparator{}) {}

  // Inserts `rec`, whose key and value live in the segment `pin` holds
  // (or in storage that outlives the memtable when `pin` is null).
  // `origin` is the span of the request that wrote it.
  void Add(const Record& rec, fs::SegmentPin pin, TraceContext origin = {}) {
    table_.Insert(Entry{rec.key, rec.value, rec.seq, rec.type,
                        static_cast<uint32_t>(table_.size()), origin});
    memory_usage_ += rec.key.size() + rec.value.size() + 32;
    // Consecutive records mostly share a segment, so only a change of
    // segment adds a pin (an occasional repeat is harmless).
    if (pin != nullptr && (pins_.empty() || pins_.back() != pin)) {
      pins_.push_back(std::move(pin));
    }
  }

  // Lookup result: `found` with the value for a PUT; a tombstone is
  // signalled via `deleted`. `value` views the memtable's bytes.
  struct GetResult {
    bool found = false;
    bool deleted = false;
    std::string_view value;
  };

  // Newest entry for `key` visible at `snapshot` (inclusive).
  GetResult Get(std::string_view key,
                SequenceNumber snapshot = UINT64_MAX) const;

  size_t entries() const { return table_.size(); }
  bool empty() const { return table_.empty(); }

  // Bytes of key+value payload plus per-entry overhead; the FLUSH trigger
  // compares this against the write-buffer limit.
  size_t ApproximateMemoryUsage() const { return memory_usage_; }

  // In-order iteration (FLUSH, SCAN). An iterator sees exactly the entries
  // present when it was constructed: an insert landing later — a writer
  // whose WAL append was in flight, so its sequence number may be below a
  // reader's snapshot — is skipped. Skiplist inserts never move or free
  // nodes, so a live iterator stays valid across them.
  class Iterator {
   public:
    explicit Iterator(const MemTable* mt)
        : it_(&mt->table_), visible_(mt->table_.size()) {}
    void SeekToFirst() {
      it_.SeekToFirst();
      SkipHidden();
    }
    // Positions on the newest version of the first user key >= `user_key`.
    void Seek(std::string_view user_key);
    bool Valid() const { return it_.Valid(); }
    void Next() {
      it_.Next();
      SkipHidden();
    }
    const Entry& entry() const { return it_.key(); }

   private:
    void SkipHidden() {
      while (it_.Valid() && it_.key().ordinal >= visible_) {
        it_.Next();
      }
    }

    SkipList<Entry, EntryComparator>::Iterator it_;
    size_t visible_;
  };

 private:
  SkipList<Entry, EntryComparator> table_;
  size_t memory_usage_ = 0;
  std::vector<fs::SegmentPin> pins_;  // segments the entries view
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_MEMTABLE_H_
