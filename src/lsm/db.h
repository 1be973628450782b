// LSM-tree key-value engine (the paper's modified-LevelDB analogue).
//
// Write path: PUT/DELETE appends to the WAL (synchronous, charged as the
// tenant's direct PUT IO) and inserts into the memtable. A full memtable is
// sealed and FLUSHed to an L0 table by a background task; L0 growth and
// level fullness drive background COMPACTions. Both run as separate
// concurrent tasks (the paper's §5 modification), and both tag their IO
// with the originating internal operation so Libra's tracker attributes
// the amplification back to PUTs.
//
// Read path: memtable -> sealed memtable -> L0 (newest first, all files
// whose key range covers the key) -> L1.. (one file per level). Every
// probed table costs at least an index-block read — uniform-keyspace PUT
// churn widens the eligible file set, reproducing the paper's GET-cost
// amplification (Fig. 2, Fig. 12).
//
// Versions are immutable snapshots of the level structure; tables are
// refcounted and their physical files are deleted when the last version
// referencing them dies (readers mid-lookup keep them alive).
//
// Deviation from LevelDB: no manifest — recovery replays the WAL only
// (table metadata lives in memory for the process lifetime; see DESIGN.md).

#ifndef LIBRA_SRC_LSM_DB_H_
#define LIBRA_SRC_LSM_DB_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/trace_context.h"
#include "src/fs/sim_fs.h"
#include "src/iosched/io_tag.h"
#include "src/iosched/scheduler.h"
#include "src/lsm/memtable.h"
#include "src/lsm/sstable.h"
#include "src/lsm/wal.h"
#include "src/obs/span.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace libra::lsm {

// How background compaction reorganizes the tree (a per-tenant choice,
// declared at AddTenant and priced accordingly — the policy shapes the
// indirect q^{a,i} profile the resource tracker observes):
//   kLeveled    — LevelDB-style: L0 overlapping, L1+ sorted disjoint runs;
//                 merging rewrites overlapping out-level files. Low read
//                 amplification, high write amplification.
//   kSizeTiered — every level is a tier of whole overlapping runs, newest
//                 first; a full tier merges into a single run front-
//                 inserted into the next tier. Low write amplification,
//                 high read amplification (every run is probed on GET).
enum class CompactionPolicy : uint8_t {
  kLeveled = 0,
  kSizeTiered = 1,
};

struct LsmOptions {
  uint64_t write_buffer_bytes = 4 * kMiB;  // memtable/WAL size limit
  uint32_t block_bytes = 4096;
  uint32_t write_chunk_bytes = 256 * 1024;
  uint64_t target_file_bytes = 2 * kMiB;  // compaction output granularity
  int l0_compaction_trigger = 4;
  int l0_stop_writes = 12;
  int num_levels = 5;
  uint64_t max_bytes_level1 = 8 * kMiB;  // grows 8x per level
  // Request-path batching knobs. Defaults preserve the paper-faithful IO
  // pattern (one synced WAL IOP per PUT, every index read once per table).
  bool wal_group_commit = false;
  uint32_t wal_group_max_bytes = 256 * 1024;
  uint32_t wal_group_max_records = 64;
  // Every DB reads its tables through one BlockCache: shared_block_cache
  // when set, else a DB-owned one sized by the two byte knobs below.
  //
  // Byte budget of a DB-owned cache that holds index and filter blocks
  // only, used when block_cache_bytes is 0. 0 = unbounded (the default:
  // each table's index and filter are read once, then stay cached until
  // the table is deleted).
  uint64_t table_cache_bytes = 0;
  // Bloom filter density for tables written at flush and compaction; 0
  // writes no filter blocks (files byte-identical to the seed format).
  uint32_t bloom_bits_per_key = 0;
  // Byte budget of a DB-owned cache over index + filter + data blocks;
  // 0 = no data-block caching (the table_cache_bytes cache instead).
  uint64_t block_cache_bytes = 0;
  // Node-shared BlockCache (one budget across all tenants' partitions);
  // when set it overrides both byte knobs. Must outlive the DB.
  BlockCache* shared_block_cache = nullptr;
  CompactionPolicy compaction_policy = CompactionPolicy::kLeveled;
  // Size-tiered only: runs a tier accumulates before the whole tier merges
  // into the next (the bottom tier self-merges at the same threshold).
  int tier_compaction_trigger = 4;
};

struct LsmStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t tables_probed = 0;  // cumulative per-GET file probes
  uint64_t scan_keys = 0;      // live keys yielded across all scans
  uint64_t scan_bytes = 0;     // key+value payload bytes of those keys
  // Background-work and backpressure accounting (observability):
  uint64_t flush_bytes = 0;            // table bytes written by FLUSH
  uint64_t flush_ns = 0;               // total sim time inside flushes
  uint64_t compact_bytes_read = 0;     // input + overlap bytes read
  uint64_t compact_bytes_written = 0;  // output table bytes written
  uint64_t compact_ns = 0;             // total sim time inside compactions
  uint64_t stalls = 0;                 // write-stall episodes entered
  uint64_t stall_ns = 0;               // total writer time spent stalled
  // WAL group commit (all zero unless wal_group_commit is on):
  uint64_t wal_appends = 0;          // records appended to any WAL
  uint64_t wal_batches = 0;          // device appends issued by leaders
  uint64_t wal_batched_records = 0;  // records that rode those batches
  uint64_t wal_max_batch_records = 0;
  // Bloom filters (all zero unless bloom_bits_per_key > 0):
  uint64_t bloom_probes = 0;
  uint64_t bloom_negatives = 0;
  uint64_t bloom_false_positives = 0;
  // GET read-path block traffic (device reads vs cache hits). The index
  // reads and data-cache hits are the block cache's index misses and data
  // hits: with a node-shared cache they count across restarts, like the
  // bcache_* fields below.
  uint64_t index_block_reads = 0;
  uint64_t filter_block_reads = 0;
  uint64_t data_block_reads = 0;
  uint64_t data_cache_hits = 0;
  // Block cache, this tenant's view (per-kind hit/miss + its evictions;
  // resident/capacity are cache-wide — the budget is shared):
  uint64_t bcache_index_hits = 0;
  uint64_t bcache_index_misses = 0;
  uint64_t bcache_filter_hits = 0;
  uint64_t bcache_filter_misses = 0;
  uint64_t bcache_data_hits = 0;
  uint64_t bcache_data_misses = 0;
  uint64_t bcache_evictions = 0;
  uint64_t bcache_resident_bytes = 0;
  uint64_t bcache_capacity_bytes = 0;
  // Boot-time WAL recovery (non-zero only when Open() found surviving
  // files from a previous incarnation under the same prefix):
  uint64_t recovered_wal_files = 0;
  uint64_t recovered_records = 0;
  uint64_t recovered_bytes = 0;  // key+value payload bytes replayed
  std::vector<int> files_per_level;
};

class LsmDb {
 public:
  LsmDb(sim::EventLoop& loop, fs::SimFs& fs, iosched::IoScheduler& scheduler,
        iosched::TenantId tenant, std::string name_prefix,
        LsmOptions options = {});

  LsmDb(const LsmDb&) = delete;
  LsmDb& operator=(const LsmDb&) = delete;

  // Creates (or recovers) the WAL. Must be called before any operation.
  Status Open();

  // `ctx` is the caller's trace span (invalid when untraced); it rides the
  // operation's IoTags so its device IO emits causally-linked spans, and —
  // for writes — is remembered as the memtable entry's origin so the FLUSH
  // and COMPACTions that later move those bytes link back to it. `op`
  // tags the write's direct IO with an internal-op class: the cluster
  // layer's re-replication copy stream writes with InternalOp::kReplicate
  // so catch-up traffic is attributed (and priced) as background work.
  sim::Task<Status> Put(std::string_view key, std::string_view value,
                        TraceContext ctx = {},
                        iosched::InternalOp op = iosched::InternalOp::kNone);
  sim::Task<Status> Delete(std::string_view key, TraceContext ctx = {},
                           iosched::InternalOp op = iosched::InternalOp::kNone);

  struct GetResult {
    Status status;      // NotFound when the key does not exist
    std::string value;  // valid when status.ok()
  };
  sim::Task<GetResult> Get(std::string_view key, TraceContext ctx = {});

  struct ScanResult {
    Status status;
    // Live key/value pairs in user-key order; tombstoned and shadowed
    // versions are merged away.
    std::vector<std::pair<std::string, std::string>> entries;
  };
  // Bounded range scan over [start, end) — an empty `end` means "to the
  // end of the keyspace" — yielding at most `limit` live entries (0 = no
  // limit). A k-way merge-read across memtable, sealed memtable, and every
  // overlapping table: sources stream in internal-key order through pinned
  // memtable cursors and per-table RangeCursors, so the cost follows what
  // the scan reads; the newest version of each user key wins, and
  // tombstones shadow older versions below them. Table IO is charged to
  // the tenant's SCAN class; `ctx` rides the tags like Get's.
  sim::Task<ScanResult> Scan(std::string_view start, std::string_view end,
                             size_t limit, TraceContext ctx = {});

  // Awaits quiescence of background flush/compaction work.
  sim::Task<void> WaitIdle();

  // Reads every live (non-deleted) key/value visible at the current sequence
  // number, in user-key order, and yields each via `fn`. Table reads are
  // charged to the tenant under `tag` (the cluster layer's shard-migration
  // drain uses an unattributed tag so profiles stay clean). The scan merges
  // memtable, sealed memtable, and all levels; concurrent writes during the
  // scan are not reflected.
  sim::Task<Status> ScanLive(
      const iosched::IoTag& tag,
      const std::function<void(std::string_view key, std::string_view value)>&
          fn);

  // Crash simulation. Kill() marks the DB dead: new operations fail with
  // kUnavailable, and in-flight coroutines (writers, readers, flush,
  // compaction) bail at their next suspension point without installing
  // results or removing WAL files — exactly the durable state a power cut
  // would leave. The filesystem keeps the WAL files; a successor LsmDb
  // constructed over the same prefix replays them in Open().
  void Kill();
  bool dead() const { return dead_; }
  // True once every in-flight coroutine has unwound. A killed DB must be
  // quiescent before destruction (destroying live coroutine state is UB);
  // StorageNode parks killed DBs in a graveyard until this holds.
  bool Quiescent() const {
    return !flush_running_ && !compaction_running_ && active_ops_ == 0;
  }

  LsmStats stats() const;
  int NumFilesAtLevel(int level) const;

  // Structural self-check: L1+ files sorted and non-overlapping, L0 files
  // newest-first by number. Returns "" when healthy, else a description.
  // Used by invariant tests.
  std::string DebugCheckInvariants() const;
  iosched::TenantId tenant() const { return tenant_; }
  // The tenant's slot on its node (the scheduler's registry), carried by
  // every IoTag this DB issues.
  iosched::TenantSlot slot() const { return slot_; }

 private:
  // A tag for IO this DB issues on behalf of its tenant: the tenant, its
  // node slot, and the request class and engine operation doing the IO.
  iosched::IoTag Tag(iosched::AppRequest app, iosched::InternalOp op,
                     TraceContext ctx = {}) const {
    return {.tenant = tenant_, .app = app, .internal = op, .ctx = ctx,
            .slot = slot_};
  }

  struct TableHandle {
    fs::SimFs* fs = nullptr;
    std::string name;
    fs::FileId file = fs::kInvalidFile;
    uint64_t number = 0;
    uint64_t size_bytes = 0;
    std::string smallest;
    std::string largest;
    // Views the file's bytes from its cache slots, so it dies first and
    // drops them before the file goes.
    std::unique_ptr<SstableReader> reader;
    // Tracing lineage: the FLUSH/COMPACT span that built this table, plus a
    // bounded sample of the app-request spans whose bytes it holds. A later
    // compaction reading this table links its span to these, extending the
    // causal chain PUT -> FLUSH -> COMPACT -> ... across rewrites.
    TraceContext lineage;
    obs::SpanLinkSet origin_links;

    ~TableHandle() {
      reader.reset();
      if (fs != nullptr && !name.empty()) {
        fs->Delete(name);  // last reference gone: reclaim the space
      }
    }
  };
  using TableRef = std::shared_ptr<TableHandle>;

  struct Version {
    // Leveled: levels[0] newest first (ranges may overlap); levels[1..]
    // sorted by smallest key, disjoint ranges.
    // Size-tiered: every level is a tier of whole runs, newest first,
    // ranges may overlap.
    std::vector<std::vector<TableRef>> levels;
  };
  using VersionRef = std::shared_ptr<const Version>;

  // Frame-scoped in-flight counter backing Quiescent(): constructed at the
  // top of every public coroutine, destroyed with the coroutine frame.
  struct OpGuard {
    explicit OpGuard(LsmDb* db) : db_(db) { ++db_->active_ops_; }
    ~OpGuard() { --db_->active_ops_; }
    OpGuard(const OpGuard&) = delete;
    OpGuard& operator=(const OpGuard&) = delete;
    LsmDb* db_;
  };

  // --- write path ---
  sim::Task<Status> WriteInternal(std::string_view key, std::string_view value,
                                  ValueType type, TraceContext ctx,
                                  iosched::InternalOp op);
  bool WriteStalled() const;
  // Seals the memtable + WAL and kicks the flush task if needed.
  Status SealMemtable();

  // --- background jobs ---
  sim::Task<void> FlushJob();
  sim::Task<void> CompactionJob();
  void MaybeStartCompaction();
  // Level most in need of compaction; returns -1 when all scores < 1.
  int PickCompactionLevel() const;
  // The policy-specific part of one compaction of `level`; the merge,
  // output split, install and accounting are shared (Compact).
  struct CompactionPick {
    // Every table the merge reads. Leveled: the input (all of L0, or the
    // level's next file round-robin) plus the overlapping out-level files.
    // Size-tiered: the whole tier. Empty when there is nothing to merge.
    std::vector<TableRef> sources;
    // Leveled: level + 1. Size-tiered: the next tier, or the bottom tier
    // itself (it merges in place).
    int out_level = 0;
    // Tombstones die in the bottom level, or the bottom tier's self-merge.
    bool drop_tombstones = false;
    // Output file size: target_file_bytes for leveled; unbounded for
    // size-tiered, so a merge writes exactly one run.
    uint64_t split_bytes = 0;
    // Install: size-tiered outputs go to the front of the out tier (newest
    // first); leveled ones are appended and the level sorted by smallest.
    bool newest_first = false;
  };
  CompactionPick PickCompaction(int level);
  sim::Task<Status> Compact(int level);

  // --- helpers ---
  std::string TableName(uint64_t number) const;
  std::string WalName(uint64_t number) const;
  WalOptions MakeWalOptions() const;
  uint64_t MaxBytesForLevel(int level) const;
  static bool RangesOverlap(const TableHandle& t, std::string_view lo,
                            std::string_view hi);
  // Records the span of one FLUSH or COMPACT job (tag.internal) under
  // `parent_span` (0 = trace root); no-op when `spans` is nullptr.
  void RecordJobSpan(obs::SpanCollector* spans, const iosched::IoTag& tag,
                     uint64_t parent_span, SimTime start, uint64_t bytes,
                     const obs::SpanLinkSet& links) const;
  // Builds one output table from non-empty `records` in internal order.
  sim::Task<StatusOr<TableRef>> BuildTable(std::span<const Record> records,
                                           const iosched::IoTag& tag);
  // Reads every table in order (sequential IO under `tag`) and appends its
  // records with seq <= `snapshot` to *out, as views valid while the caller
  // holds the tables. Unavailable once the DB is killed.
  sim::Task<Status> ReadTables(const std::vector<TableRef>& tables,
                               const iosched::IoTag& tag,
                               SequenceNumber snapshot,
                               std::vector<Record>* out);
  // The merge shared by compaction and ScanLive: sorts `records` (unique
  // internal keys) into internal order and keeps the newest version of
  // each user key, dropping it when it is a tombstone and
  // `drop_tombstones` is set.
  static void KeepNewest(std::vector<Record>* records, bool drop_tombstones);

  sim::EventLoop& loop_;
  fs::SimFs& fs_;
  iosched::IoScheduler& scheduler_;
  iosched::TenantId tenant_;
  iosched::TenantSlot slot_;
  std::string prefix_;
  LsmOptions options_;
  // The block cache serving this DB's readers: the caller's shared cache,
  // else owned_cache_ (see LsmOptions). Declared before the tables, which
  // drop their blocks from it when destroyed.
  std::unique_ptr<BlockCache> owned_cache_;
  BlockCache& cache_;
  TableReadCounters read_counters_;  // shared by all this DB's readers
  WalCounters wal_counters_;  // survives WAL rotation at memtable seal

  SequenceNumber seq_ = 0;
  uint64_t next_file_number_ = 1;

  // Shared so a reader can pin them: a SCAN or ScanLive suspended on table
  // IO keeps the memtables it started from alive through a seal or flush.
  std::shared_ptr<MemTable> mem_;
  // Sealed, being flushed. The flush builds from views of its entries, so
  // only the flush itself resets it, once the table is installed.
  std::shared_ptr<MemTable> imm_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<WriteAheadLog> imm_wal_;
  VersionRef current_;

  bool flush_running_ = false;
  bool compaction_running_ = false;
  bool dead_ = false;
  int active_ops_ = 0;
  sim::Mutex stall_mu_;
  sim::CondVar stall_cv_;

  // WAL files replayed by Open(); deleted once the first flush persists
  // the memtable that absorbed them (see FlushJob).
  std::vector<std::string> recovered_wals_;
  bool recovered_in_imm_ = false;
  // Every counter this DB keeps itself; stats() adds the WAL, reader and
  // block-cache counts and the level shape.
  LsmStats stats_;
  std::vector<size_t> compact_cursor_;  // round-robin pick per level
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_DB_H_
