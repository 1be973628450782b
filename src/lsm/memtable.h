// In-memory write buffer: a skiplist over internal keys (user key asc,
// sequence desc). When it reaches the configured size it is sealed and
// FLUSHed to an L0 SSTable by a background task.

#ifndef LIBRA_SRC_LSM_MEMTABLE_H_
#define LIBRA_SRC_LSM_MEMTABLE_H_

#include <string>
#include <string_view>

#include "src/common/trace_context.h"
#include "src/lsm/format.h"
#include "src/lsm/skiplist.h"

namespace libra::lsm {

class MemTable {
 public:
  // One decoded, owned entry (also the unit compaction merges operate on).
  struct Entry {
    std::string key;
    std::string value;
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

  void Put(std::string_view key, SequenceNumber seq, std::string_view value,
           TraceContext origin = {}) {
    Add(key, seq, ValueType::kPut, value, origin);
  }
  void Delete(std::string_view key, SequenceNumber seq,
              TraceContext origin = {}) {
    Add(key, seq, ValueType::kDelete, "", origin);
  }

  // Lookup result: `found` with the value for a PUT; a tombstone is
  // signalled via `deleted`.
  struct GetResult {
    bool found = false;
    bool deleted = false;
    std::string value;
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
  void Add(std::string_view key, SequenceNumber seq, ValueType type,
           std::string_view value, TraceContext origin) {
    table_.Insert(Entry{std::string(key), std::string(value), seq, type,
                        static_cast<uint32_t>(table_.size()), origin});
    memory_usage_ += key.size() + value.size() + 32;
  }

  SkipList<Entry, EntryComparator> table_;
  size_t memory_usage_ = 0;
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_MEMTABLE_H_
