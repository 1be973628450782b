// Immutable sorted string tables.
//
// Layout (paper §3.1 mechanics: block reads + one index block per lookup):
//   [data block 0][data block 1]...[index block][filter block][footer]
//   data block:   concatenated records, ~4KB target size
//   index block:  per data block {last_key, offset, size}
//   filter block: bloom filter over the table's user keys (absent — zero
//                 length — when bloom_bits_per_key is 0, which keeps the
//                 file byte-identical to the pre-filter format)
//   footer (16B): index offset u64, index size u64 (the filter region is
//                 whatever lies between index end and footer)
//
// A point lookup probes the bloom filter first: a negative answer proves
// the key is absent and skips both the index and data-block device reads —
// the common case for GETs against leveled trees, and the main lever on
// the per-file GET amplification the paper measures (Figs. 2/12). On a
// maybe (or with filters off, the 2014 LevelDB default this engine
// started from) the lookup loads the index block (>= one 4KB read),
// binary-searches it, and reads exactly one data block.
//
// Every reader resolves its index and filter blocks through a BlockCache
// (data blocks too when the cache caches data): a hit costs zero device IO,
// a miss re-reads (and re-charges) the block from the device. Uncached data
// blocks always hit the device — O_DIRECT leaves no page cache.
//
// The builder emits the table as a sequential stream of chunked writes
// (the paper's "asynchronous, io-efficient" FLUSH/COMPACT writes).

#ifndef LIBRA_SRC_LSM_SSTABLE_H_
#define LIBRA_SRC_LSM_SSTABLE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/fs/sim_fs.h"
#include "src/iosched/io_tag.h"
#include "src/lsm/block_cache.h"
#include "src/lsm/format.h"
#include "src/sim/task.h"

namespace libra::lsm {

struct SstableOptions {
  uint32_t block_bytes = 4096;          // data block target
  uint32_t write_chunk_bytes = 262144;  // sequential append granularity
  // Bloom filter density; 0 writes no filter block (tables byte-identical
  // to the pre-filter format).
  uint32_t bloom_bits_per_key = 0;
};

// Read-path event counters, shared across a DB's readers (the DB owns one
// and points every reader at it, like WalCounters for rotated WALs).
struct TableReadCounters {
  uint64_t bloom_probes = 0;           // GETs that consulted a filter
  uint64_t bloom_negatives = 0;        // ... answered "definitely absent"
  uint64_t bloom_false_positives = 0;  // ... said maybe, key wasn't there
  uint64_t index_block_reads = 0;      // index blocks read from the device
  uint64_t filter_block_reads = 0;     // filter blocks read from the device
  uint64_t data_block_reads = 0;       // GET data blocks read from the device
  uint64_t data_cache_hits = 0;        // GET data blocks served by the cache
};

// Builds a table in one buffer, encoding records straight into it; Finish()
// hands the buffer to `file` without a copy.
class SstableBuilder {
 public:
  SstableBuilder(fs::SimFs& fs, fs::FileId file, SstableOptions options = {});

  // Sizes the buffer once for a table of `records`. The size is an upper
  // bound: the encoded records, one index entry per record, the filter and
  // the footer. Without it the buffer grows as records arrive.
  void Reserve(std::span<const Record> records);

  // Keys must arrive in internal order (user key asc, seq desc).
  void Add(std::string_view key, SequenceNumber seq, ValueType type,
           std::string_view value);

  // Appends index, filter and footer, then writes the table to the file
  // with `tag` IO in write_chunk_bytes pieces. No Adds afterwards.
  sim::Task<Status> Finish(const iosched::IoTag& tag);

  uint64_t num_entries() const { return num_entries_; }
  // Views into the buffer, valid until Finish.
  std::string_view smallest_key() const { return KeyAt(first_key_); }
  std::string_view largest_key() const { return KeyAt(last_key_); }

 private:
  // A key's position in buffer_ (which may still grow and move).
  struct KeyPos {
    uint64_t offset = 0;
    uint32_t size = 0;
  };
  std::string_view KeyAt(KeyPos pos) const {
    return std::string_view(buffer_).substr(pos.offset, pos.size);
  }
  // Ends the open data block at the buffer's end.
  void CloseBlock();

  fs::SimFs& fs_;
  fs::FileId file_;
  SstableOptions options_;

  std::string buffer_;  // data blocks; Finish appends index, filter, footer
  uint64_t block_start_ = 0;  // where the open data block begins
  struct IndexEntry {
    KeyPos last_key;
    uint64_t offset;
    uint32_t size;
  };
  std::vector<IndexEntry> index_;
  // BloomHash of each distinct user key for the filter block (internal
  // order keeps versions of one key adjacent, so adjacent-dup skipping
  // suffices). Collected only when bloom_bits_per_key > 0.
  std::vector<uint32_t> filter_hashes_;
  KeyPos first_key_;
  KeyPos last_key_;
  uint64_t num_entries_ = 0;
  bool finished_ = false;
};

// Reads a finished table. The footer is loaded from disk on first need and
// cached in the reader (tables are immutable). The parsed index and the
// filter block live in `cache`, bounded by its budget (unbounded caches
// keep them from first use on) and re-read and re-charged after eviction.
// Data blocks are served from the cache only when it caches data.
class SstableReader {
 public:
  // `cache` holds this reader's blocks under (`tenant`, `table`) — the
  // owning tenant and table file number; table numbers alone collide
  // across tenants' partitions on a node-shared cache. It must outlive the
  // reader, whose destruction drops the table's blocks from it.
  // `counters`, if non-null, receives read-path events.
  SstableReader(fs::SimFs& fs, fs::FileId file, SstableOptions options,
                BlockCache& cache, uint64_t table, iosched::TenantId tenant,
                TableReadCounters* counters = nullptr);
  ~SstableReader() { cache_.EraseTable(tenant_, table_); }

  SstableReader(const SstableReader&) = delete;
  SstableReader& operator=(const SstableReader&) = delete;

  struct GetResult {
    bool found = false;    // an entry for the key exists in this table
    bool deleted = false;  // ... and it is a tombstone
    std::string value;
    Status status;         // IO / parse errors
  };

  // Point lookup: newest entry for `key` visible at `snapshot`. Probes the
  // bloom filter (when the table has one) before touching the index.
  sim::Task<GetResult> Get(const iosched::IoTag& tag, std::string_view key,
                           SequenceNumber snapshot);

  // Streaming in-order cursor over the table's records with user key >=
  // the seek key, for range scans. Data blocks are loaded on demand as the
  // cursor advances (each charged to the cursor's tag), so a
  // limit-truncated scan pays only for the blocks it actually touched —
  // unlike ScanAll's whole-table read. The cursor pins the parsed index
  // for its lifetime (a cache eviction mid-scan cannot invalidate it).
  // Scans bypass the bloom filter — a point filter cannot answer a range
  // predicate — and read data blocks straight from the device, so a long
  // scan cannot wash a tenant's hot blocks out of the shared cache.
  class RangeCursor {
   public:
    bool Valid() const { return valid_; }
    // The current record; views point into the cursor's resident block and
    // are invalidated by Next(). Requires Valid().
    const Record& record() const { return record_; }
    // Advances to the next record in internal-key order, reading the next
    // data block when the current one is exhausted. Clears Valid() past
    // the table's last record.
    sim::Task<Status> Next();

   private:
    friend class SstableReader;
    RangeCursor(fs::SimFs& fs, fs::FileId file, iosched::IoTag tag,
                TableIndexRef index)
        : fs_(fs), file_(file), tag_(tag), index_(std::move(index)) {}

    // Decodes forward until a record with user key >= `start` surfaces
    // (every record when `bounded` is false), loading blocks as needed.
    sim::Task<Status> SkipTo(std::string_view start, bool bounded);

    fs::SimFs& fs_;
    fs::FileId file_;
    iosched::IoTag tag_;
    TableIndexRef index_;
    size_t next_block_ = 0;  // index of the next data block to load
    std::string_view block_;  // current data block, a view of the file
    size_t offset_ = 0;      // decode position within block_
    Record record_;
    bool valid_ = false;
  };

  // Opens a cursor positioned at the first record whose user key is >=
  // `start` (immediately invalid when the table holds none). The index
  // load and all data-block reads are charged to `tag`.
  sim::Task<StatusOr<std::unique_ptr<RangeCursor>>> Seek(
      const iosched::IoTag& tag, std::string_view start);

  // Sequential scan for compaction: reads the whole table in write_chunk
  // sized IOs and yields records in order via `fn`. The records are views
  // of the stored file, valid for as long as the table lives (in LsmDb,
  // while the caller holds its TableRef).
  sim::Task<Status> ScanAll(
      const iosched::IoTag& tag,
      const std::function<void(const Record&)>& fn);

 private:
  // Loads and validates the footer (one charged 16B read, cached in the
  // reader afterwards), locating the index and filter regions.
  sim::Task<Status> LoadFooter(const iosched::IoTag& tag);

  // Reads the `size` bytes at `offset`, charged to `tag`, padded back to at
  // least one 4KB block — the "at least one (4KB) index block read per
  // file" of §3.1 — and returns them without the padding.
  sim::Task<StatusOr<std::string_view>> ReadPadded(const iosched::IoTag& tag,
                                                   uint64_t offset,
                                                   uint64_t size);

  // Resolves the parsed index from the cache, else loads footer + index
  // block from the device, charged to `tag`. The returned ref pins the
  // index for the caller even if the cache evicts it mid-lookup.
  sim::Task<StatusOr<TableIndexRef>> LoadIndex(const iosched::IoTag& tag);

  // Resolves the filter block the same way. Returns a null ref when the
  // table has no filter; the ref pins the bytes past cache eviction.
  sim::Task<StatusOr<CachedBlockRef>> LoadFilter(const iosched::IoTag& tag);

  fs::SimFs& fs_;
  fs::FileId file_;
  SstableOptions options_;
  BlockCache& cache_;
  uint64_t table_;
  iosched::TenantId tenant_;
  TableReadCounters* counters_;  // nullptr: uncounted (bare-reader tests)
  // Footer, cached after the first (charged) load; a post-eviction reload
  // re-reads only the evicted block.
  bool footer_cached_ = false;
  uint64_t index_offset_ = 0;
  uint64_t index_size_ = 0;
  uint64_t filter_size_ = 0;  // 0 after footer load = table has no filter
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_SSTABLE_H_
