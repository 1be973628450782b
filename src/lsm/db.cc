#include "src/lsm/db.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <utility>

namespace libra::lsm {

using iosched::AppRequest;
using iosched::InternalOp;
using iosched::IoTag;

namespace {

// The DB's own cache unless the caller shares one: a full cache of
// block_cache_bytes, else index and filter blocks under table_cache_bytes.
std::unique_ptr<BlockCache> MakeOwnedCache(const LsmOptions& options) {
  if (options.shared_block_cache != nullptr) {
    return nullptr;
  }
  if (options.block_cache_bytes > 0) {
    return std::make_unique<BlockCache>(options.block_cache_bytes,
                                        /*cache_data=*/true);
  }
  return std::make_unique<BlockCache>(options.table_cache_bytes,
                                      /*cache_data=*/false);
}

}  // namespace

LsmDb::LsmDb(sim::EventLoop& loop, fs::SimFs& fs,
             iosched::IoScheduler& scheduler, iosched::TenantId tenant,
             std::string name_prefix, LsmOptions options)
    : loop_(loop),
      fs_(fs),
      scheduler_(scheduler),
      tenant_(tenant),
      slot_(scheduler.slots().Assign(tenant)),
      prefix_(std::move(name_prefix)),
      options_(options),
      owned_cache_(MakeOwnedCache(options)),
      cache_(options.shared_block_cache != nullptr
                 ? *options.shared_block_cache
                 : *owned_cache_),
      stall_mu_(loop),
      stall_cv_(loop) {
  assert(options_.num_levels >= 2);
  auto v = std::make_shared<Version>();
  v->levels.resize(options_.num_levels);
  current_ = v;
  compact_cursor_.assign(options_.num_levels, 0);
}

std::string LsmDb::TableName(uint64_t number) const {
  return prefix_ + "/sst_" + std::to_string(number);
}

std::string LsmDb::WalName(uint64_t number) const {
  return prefix_ + "/wal_" + std::to_string(number);
}

WalOptions LsmDb::MakeWalOptions() const {
  WalOptions w;
  w.group_commit = options_.wal_group_commit;
  w.group_max_bytes = options_.wal_group_max_bytes;
  w.group_max_records = options_.wal_group_max_records;
  return w;
}

uint64_t LsmDb::MaxBytesForLevel(int level) const {
  uint64_t max = options_.max_bytes_level1;
  for (int l = 1; l < level; ++l) {
    max *= 8;
  }
  return max;
}

Status LsmDb::Open() {
  mem_ = std::make_shared<MemTable>();
  // Boot-time recovery. There is no manifest (see header): sst_* files
  // left by a previous incarnation are orphans whose metadata died with
  // it and are deleted here; every surviving wal_* file is replayed in
  // file-number order, rebuilding acked-but-unflushed writes in the fresh
  // memtable. Flushed data does not survive a crash locally — a
  // replicated deployment restores it via the catch-up copy stream.
  const std::string wal_prefix = prefix_ + "/wal_";
  const std::string sst_prefix = prefix_ + "/sst_";
  std::vector<std::pair<uint64_t, std::string>> wals;
  uint64_t max_number = 0;
  for (const std::string& name : fs_.List(prefix_ + "/")) {
    if (name.size() > wal_prefix.size() &&
        name.compare(0, wal_prefix.size(), wal_prefix) == 0) {
      const uint64_t num =
          std::strtoull(name.c_str() + wal_prefix.size(), nullptr, 10);
      max_number = std::max(max_number, num);
      wals.emplace_back(num, name);
    } else if (name.size() > sst_prefix.size() &&
               name.compare(0, sst_prefix.size(), sst_prefix) == 0) {
      const uint64_t num =
          std::strtoull(name.c_str() + sst_prefix.size(), nullptr, 10);
      max_number = std::max(max_number, num);
      fs_.Delete(name);
    }
  }
  std::sort(wals.begin(), wals.end());
  SequenceNumber max_seq = seq_;
  for (const auto& [num, name] : wals) {
    WriteAheadLog wal(fs_, name, MakeWalOptions(), &wal_counters_);
    if (Status s = wal.Open(); !s.ok()) {
      return s;
    }
    Status s = wal.Replay([&](const LoggedRecord& logged) {
      const Record& rec = logged.record;
      mem_->Add(rec, logged.pin);
      max_seq = std::max(max_seq, rec.seq);
      ++stats_.recovered_records;
      stats_.recovered_bytes += rec.key.size() + rec.value.size();
    });
    if (!s.ok()) {
      return s;
    }
    ++stats_.recovered_wal_files;
    recovered_wals_.push_back(name);
  }
  seq_ = max_seq;
  // Number new files past every survivor: a pre-crash incarnation may have
  // created files this one never learns about until they collide.
  next_file_number_ = std::max(next_file_number_, max_number + 1);
  wal_ = std::make_unique<WriteAheadLog>(fs_, WalName(next_file_number_++),
                                         MakeWalOptions(), &wal_counters_);
  return wal_->Open();
}

bool LsmDb::WriteStalled() const {
  if (imm_ != nullptr &&
      mem_->ApproximateMemoryUsage() >= options_.write_buffer_bytes) {
    return true;  // both buffers full: wait for the flush
  }
  return static_cast<int>(current_->levels[0].size()) >=
         options_.l0_stop_writes;
}

Status LsmDb::SealMemtable() {
  assert(imm_ == nullptr);
  imm_ = std::move(mem_);
  imm_wal_ = std::move(wal_);
  if (!recovered_wals_.empty()) {
    // The sealed memtable absorbs the replayed records; once its flush
    // lands, the recovered WAL files are fully covered and can go.
    recovered_in_imm_ = true;
  }
  mem_ = std::make_shared<MemTable>();
  wal_ = std::make_unique<WriteAheadLog>(fs_, WalName(next_file_number_++),
                                         MakeWalOptions(), &wal_counters_);
  if (Status s = wal_->Open(); !s.ok()) {
    return s;
  }
  // Attribute the flush to the PUTs that filled the buffer (§4.1).
  scheduler_.tracker().RecordTrigger(slot_, AppRequest::kPut,
                                     InternalOp::kFlush);
  if (!flush_running_) {
    flush_running_ = true;
    sim::Detach(FlushJob());
  }
  return Status::Ok();
}

sim::Task<Status> LsmDb::WriteInternal(std::string_view key,
                                       std::string_view value, ValueType type,
                                       TraceContext ctx, InternalOp op) {
  const OpGuard guard(this);
  if (dead_) {
    co_return Status::Unavailable("db killed");
  }
  // Backpressure: L0 overload or both write buffers full.
  if (WriteStalled()) {
    const SimTime stall_start = loop_.Now();
    ++stats_.stalls;
    while (WriteStalled()) {
      co_await stall_mu_.Lock();
      if (!dead_ && WriteStalled()) {
        co_await stall_cv_.Wait(stall_mu_);
      }
      stall_mu_.Unlock();
      if (dead_) {
        co_return Status::Unavailable("db killed");
      }
    }
    stats_.stall_ns += static_cast<uint64_t>(loop_.Now() - stall_start);
  }

  const SequenceNumber seq = ++seq_;
  const IoTag tag = Tag(AppRequest::kPut, op, ctx);
  StatusOr<LoggedRecord> logged =
      co_await wal_->Append(tag, key, seq, type, value);
  if (dead_) {
    // The record may or may not be durable; the crash decides. Either way
    // this incarnation stops mutating state — replay arbitrates at boot.
    co_return Status::Unavailable("db killed");
  }
  if (!logged.ok()) {
    co_return logged.status();
  }
  // Insert after durability, viewing the bytes the log stored; ordering
  // between concurrent writers is by sequence number regardless of
  // insertion order.
  mem_->Add(logged->record, std::move(logged->pin), ctx);
  ++stats_.puts;
  if (mem_->ApproximateMemoryUsage() >= options_.write_buffer_bytes &&
      imm_ == nullptr) {
    co_return SealMemtable();
  }
  co_return Status::Ok();
}

sim::Task<Status> LsmDb::Put(std::string_view key, std::string_view value,
                             TraceContext ctx, InternalOp op) {
  return WriteInternal(key, value, ValueType::kPut, ctx, op);
}

sim::Task<Status> LsmDb::Delete(std::string_view key, TraceContext ctx,
                                InternalOp op) {
  return WriteInternal(key, "", ValueType::kDelete, ctx, op);
}

sim::Task<LsmDb::GetResult> LsmDb::Get(std::string_view key, TraceContext ctx) {
  const OpGuard guard(this);
  ++stats_.gets;
  const SequenceNumber snapshot = seq_;
  const IoTag tag = Tag(AppRequest::kGet, InternalOp::kNone, ctx);
  GetResult out;
  if (dead_) {
    out.status = Status::Unavailable("db killed");
    co_return out;
  }

  // Memtables first (no IO).
  for (const MemTable* mt : {mem_.get(), imm_.get()}) {
    if (mt == nullptr) {
      continue;
    }
    const MemTable::GetResult r = mt->Get(key, snapshot);
    if (r.found) {
      if (r.deleted) {
        out.status = Status::NotFound("deleted");
      } else {
        out.value.assign(r.value);
      }
      co_return out;
    }
  }

  // Table lookups against an immutable version snapshot; the refs keep
  // files alive even if a compaction replaces them mid-read.
  const VersionRef version = current_;
  // Overlapping levels probe every covering file newest-first (under
  // size-tiered, runs only leave a tier by whole-tier merges, so run
  // recency orders version recency globally).
  for (int level = 0; level < options_.num_levels; ++level) {
    const std::vector<TableRef>& files = version->levels[level];
    auto first = files.begin();
    auto last = files.end();
    if (!Overlapping(level)) {
      // Sorted disjoint files, so at most the first one whose largest key
      // reaches `key` can cover it.
      first = std::lower_bound(
          files.begin(), files.end(), key,
          [](const TableRef& t, std::string_view k) { return t->largest < k; });
      last = first == files.end() ? first : first + 1;
    }
    for (auto it = first; it != last; ++it) {
      const TableRef& table = *it;
      if (key < table->smallest || key > table->largest) {
        continue;
      }
      ++stats_.tables_probed;
      // Resident blocks answer without suspending; only a miss awaits IO.
      SstableReader::Lookup lk;
      if (!table->reader->TryGet(key, snapshot, lk)) {
        co_await table->reader->ResumeGet(tag, key, snapshot, lk);
        if (dead_) {
          out.status = Status::Unavailable("db killed");
          co_return out;
        }
      }
      SstableReader::GetResult& r = lk.result;
      if (!r.status.ok()) {
        out.status = r.status;
        co_return out;
      }
      if (r.found) {
        if (r.deleted) {
          out.status = Status::NotFound("deleted");
        } else {
          out.value = std::move(r.value);
        }
        co_return out;
      }
    }
  }
  out.status = Status::NotFound("no entry");
  co_return out;
}

sim::Task<LsmDb::ScanResult> LsmDb::Scan(std::string_view start,
                                         std::string_view end, size_t limit,
                                         TraceContext ctx) {
  const OpGuard guard(this);
  ++stats_.scans;
  ScanResult out;
  if (dead_) {
    out.status = Status::Unavailable("db killed");
    co_return out;
  }
  const SequenceNumber snapshot = seq_;
  const IoTag tag = Tag(AppRequest::kScan, InternalOp::kNone, ctx);

  // Pin one consistent cut before any suspension: the version snapshot and
  // both memtables, each read through a cursor seeked to `start`. The live
  // cursors stay correct across the suspensions below because
  //  - a cursor shows only the entries its memtable held when it opened,
  //    so an insert landing while the scan waits on table IO is skipped
  //    (a sequence check alone would not do: a writer takes its sequence
  //    number before its WAL append suspends, and inserts after it); and
  //  - skiplist inserts never free or move nodes, and the pins keep a
  //    memtable sealed or flushed meanwhile alive until the scan ends.
  const VersionRef base = current_;
  const std::shared_ptr<const MemTable> pinned[] = {mem_, imm_};
  std::vector<MemTable::Iterator> mems;
  for (const std::shared_ptr<const MemTable>& mt : pinned) {
    if (mt != nullptr) {
      mems.emplace_back(mt.get());
      mems.back().Seek(start);
    }
  }

  // One streaming cursor per table whose range overlaps [start, end); the
  // TableRef pins the file for the cursor's lifetime. Applies uniformly to
  // both compaction policies — leveled L1+ files are merely a disjoint
  // special case of "overlapping runs".
  struct TableSource {
    TableRef table;
    std::unique_ptr<SstableReader::RangeCursor> cursor;
  };
  std::vector<TableSource> tables;
  for (const std::vector<TableRef>& level : base->levels) {
    for (const TableRef& t : level) {
      if (t->largest < start || (!end.empty() && t->smallest >= end)) {
        continue;
      }
      auto seeked = co_await t->reader->Seek(tag, start);
      if (dead_) {
        out.status = Status::Unavailable("db killed");
        co_return out;
      }
      if (!seeked.ok()) {
        out.status = seeked.status();
        co_return out;
      }
      if ((*seeked)->Valid()) {
        tables.push_back(TableSource{t, std::move(*seeked)});
      }
    }
  }

  // K-way merge in internal-key order. The first surfacing of a user key
  // is its newest visible version — it wins, and (value or tombstone)
  // shadows every older version behind it.
  std::string last_user_key;
  bool have_last = false;
  while (limit == 0 || out.entries.size() < limit) {
    int best_mem = -1;
    int best = -1;
    std::string_view bkey;
    std::string_view bval;
    SequenceNumber bseq = 0;
    ValueType btype = ValueType::kPut;
    for (size_t i = 0; i < mems.size(); ++i) {
      if (!mems[i].Valid()) {
        continue;
      }
      const MemTable::Entry& e = mems[i].entry();
      if (best_mem < 0 || CompareInternalKey(e.key, e.seq, bkey, bseq) < 0) {
        best_mem = static_cast<int>(i);
        bkey = e.key;
        bval = e.value;
        bseq = e.seq;
        btype = e.type;
      }
    }
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!tables[i].cursor->Valid()) {
        continue;
      }
      const Record& r = tables[i].cursor->record();
      if ((best_mem < 0 && best < 0) ||
          CompareInternalKey(r.key, r.seq, bkey, bseq) < 0) {
        best_mem = -1;
        best = static_cast<int>(i);
        bkey = r.key;
        bval = r.value;
        bseq = r.seq;
        btype = r.type;
      }
    }
    if (best_mem < 0 && best < 0) {
      break;  // every source exhausted
    }
    if (!end.empty() && bkey >= end) {
      break;  // the global minimum is past the range: so is everything else
    }
    // Versions newer than the snapshot neither emit nor shadow (skipping
    // them lets the older visible version surface next).
    if (bseq <= snapshot) {
      if (!(have_last && bkey == last_user_key)) {
        // Copy before advancing: the views die with the cursor's block.
        last_user_key = std::string(bkey);
        have_last = true;
        if (btype != ValueType::kDelete) {
          out.entries.emplace_back(std::string(bkey), std::string(bval));
          ++stats_.scan_keys;
          stats_.scan_bytes += bkey.size() + bval.size();
        }
      }
    }
    if (best_mem >= 0) {
      mems[best_mem].Next();
    } else {
      Status s = co_await tables[best].cursor->Next();
      if (dead_) {
        out.status = Status::Unavailable("db killed");
        co_return out;
      }
      if (!s.ok()) {
        out.status = s;
        co_return out;
      }
    }
  }
  co_return out;
}

sim::Task<StatusOr<LsmDb::TableRef>> LsmDb::BuildTable(
    std::span<const Record> records, const iosched::IoTag& tag) {
  assert(!records.empty());
  auto handle = std::make_shared<TableHandle>();
  handle->fs = &fs_;
  handle->number = next_file_number_++;
  handle->name = TableName(handle->number);
  auto created = fs_.Create(handle->name);
  if (!created.ok()) {
    handle->fs = nullptr;  // nothing to clean up
    co_return created.status();
  }
  handle->file = *created;

  SstableOptions sst_opt;
  sst_opt.block_bytes = options_.block_bytes;
  sst_opt.write_chunk_bytes = options_.write_chunk_bytes;
  sst_opt.bloom_bits_per_key = options_.bloom_bits_per_key;
  SstableBuilder builder(fs_, handle->file, sst_opt);
  builder.Reserve(records);
  for (const Record& r : records) {
    builder.Add(r.key, r.seq, r.type, r.value);
  }
  handle->smallest = std::string(records.front().key);
  handle->largest = std::string(records.back().key);
  if (Status s = co_await builder.Finish(tag); !s.ok()) {
    co_return s;
  }
  handle->size_bytes = fs_.SizeOf(handle->file);
  handle->reader = std::make_unique<SstableReader>(
      fs_, handle->file, sst_opt, cache_, slot_, &read_counters_);
  co_return handle;
}

void LsmDb::RecordJobSpan(obs::SpanCollector* spans, const IoTag& tag,
                          uint64_t parent_span, SimTime start, uint64_t bytes,
                          const obs::SpanLinkSet& links) const {
  if (spans == nullptr) {
    return;
  }
  obs::SpanRecord rec;
  rec.trace_id = tag.ctx.trace_id;
  rec.span_id = tag.ctx.span_id;
  rec.parent_span = parent_span;
  rec.kind = tag.internal == InternalOp::kFlush ? obs::SpanKind::kFlush
                                                : obs::SpanKind::kCompact;
  rec.app = static_cast<uint8_t>(tag.app);
  rec.internal = static_cast<uint8_t>(tag.internal);
  rec.is_write = 1;
  rec.tenant = tenant_;
  rec.start_ns = start;
  rec.end_ns = loop_.Now();
  rec.bytes = bytes;
  rec.links = links;
  spans->Record(rec);
}

sim::Task<void> LsmDb::FlushJob() {
  while (imm_ != nullptr && !dead_) {
    const SimTime flush_start = loop_.Now();
    // View the sealed memtable in order (it lives until this flush resets
    // it), gathering the origin spans of the requests whose bytes this
    // flush persists.
    std::vector<Record> records;
    records.reserve(imm_->entries());
    obs::SpanLinkSet origins;
    MemTable::Iterator it(imm_.get());
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      const MemTable::Entry& e = it.entry();
      records.push_back(Record{e.key, e.value, e.seq, e.type});
      origins.Add(e.origin);
    }
    // The flush gets its own span (new trace root when no writer was
    // traced); its device IO parents under it via the tag context.
    obs::SpanCollector* spans = scheduler_.spans();
    IoTag tag = Tag(AppRequest::kPut, InternalOp::kFlush);
    if (spans != nullptr) {
      tag.ctx = spans->MintAlways();
    }
    uint64_t built_bytes = 0;
    if (!records.empty()) {
      auto built = co_await BuildTable(records, tag);
      if (dead_) {
        break;  // crash: drop the build (dtor reclaims it), keep the WAL
      }
      if (built.ok()) {
        stats_.flush_bytes += (*built)->size_bytes;
        built_bytes = (*built)->size_bytes;
        (*built)->lineage = tag.ctx;
        (*built)->origin_links = origins;
        // Install: newest L0 file goes to the front.
        auto next = std::make_shared<Version>(*current_);
        next->levels[0].insert(next->levels[0].begin(), *built);
        current_ = next;
      }
    }
    ++stats_.flushes;
    stats_.flush_ns += static_cast<uint64_t>(loop_.Now() - flush_start);
    RecordJobSpan(spans, tag, /*parent_span=*/0, flush_start, built_bytes,
                  origins);
    scheduler_.tracker().RecordInternalOpDone(slot_, InternalOp::kFlush);
    imm_.reset();
    if (imm_wal_ != nullptr) {
      // A group-commit leader suspended in the rotated log's batch loop
      // still touches its queue when the shared write lands; drain any
      // in-flight appends before destroying the object under it.
      co_await imm_wal_->WaitIdle();
      if (dead_) {
        break;  // crash while draining: keep the log for replay
      }
      imm_wal_->Remove();
      imm_wal_.reset();
    }
    if (recovered_in_imm_) {
      // The flush that just landed persisted the replayed records; the
      // recovered WAL files are now fully covered.
      for (const std::string& name : recovered_wals_) {
        fs_.Delete(name);
      }
      recovered_wals_.clear();
      recovered_in_imm_ = false;
    }
    stall_cv_.NotifyAll();
    MaybeStartCompaction();
  }
  flush_running_ = false;
}

int LsmDb::PickCompactionLevel() const {
  // Overlapping levels score by table count against the policy's trigger
  // (ties go to the deeper one), sorted levels by bytes against their
  // target. Size-tiered scores every tier: the bottom tier self-merges,
  // and a single run never merges (nothing to reclaim). Leveled never
  // compacts out of the bottom level.
  const bool tiered =
      options_.compaction_policy == CompactionPolicy::kSizeTiered;
  const double trigger = tiered ? options_.tier_compaction_trigger
                                : options_.l0_compaction_trigger;
  const int scored = tiered ? options_.num_levels : options_.num_levels - 1;
  double best_score = 1.0;
  int best_level = -1;
  for (int level = 0; level < scored; ++level) {
    const std::vector<TableRef>& files = current_->levels[level];
    if (Overlapping(level)) {
      const double score = static_cast<double>(files.size()) / trigger;
      if ((!tiered || files.size() >= 2) && score >= best_score) {
        best_score = score;
        best_level = level;
      }
      continue;
    }
    uint64_t bytes = 0;
    for (const TableRef& t : files) {
      bytes += t->size_bytes;
    }
    const double score = static_cast<double>(bytes) /
                         static_cast<double>(MaxBytesForLevel(level));
    if (score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  return best_level;
}

void LsmDb::MaybeStartCompaction() {
  if (compaction_running_ || PickCompactionLevel() < 0) {
    return;
  }
  compaction_running_ = true;
  sim::Detach(CompactionJob());
}

sim::Task<void> LsmDb::CompactionJob() {
  while (!dead_) {
    const int level = PickCompactionLevel();
    if (level < 0) {
      break;
    }
    co_await Compact(level);
  }
  compaction_running_ = false;
}

bool LsmDb::RangesOverlap(const TableHandle& t, std::string_view lo,
                          std::string_view hi) {
  return !(t.largest < lo || hi < t.smallest);
}

LsmDb::CompactionPick LsmDb::PickCompaction(int level) {
  const std::vector<TableRef>& files = current_->levels[level];
  CompactionPick pick;
  if (options_.compaction_policy == CompactionPolicy::kSizeTiered) {
    // The bottom tier has nowhere deeper to push: it merges in place, which
    // is also the only point tombstones may die (no older version of any
    // key can exist below the merge's inputs).
    const bool bottom_self = level == options_.num_levels - 1;
    pick.out_level = bottom_self ? level : level + 1;
    pick.drop_tombstones = bottom_self;
    // One output run per merge — a run is a single file here, so the
    // newest-first invariant stays "front-inserted, highest number first".
    pick.split_bytes = std::numeric_limits<uint64_t>::max();
    pick.newest_first = true;
    // Inputs: the whole tier. Taking every run is what keeps recency
    // tier-ordered (all of tier k stays newer than all of tier k+1), which
    // GET's newest-first probe relies on. A single run never merges.
    if (files.size() >= 2) {
      pick.sources = files;
    }
    return pick;
  }
  pick.out_level = level + 1;
  pick.drop_tombstones = pick.out_level == options_.num_levels - 1;
  pick.split_bytes = options_.target_file_bytes;
  if (Overlapping(level)) {
    // All of L0 (their ranges overlap each other anyway).
    pick.sources = files;
  } else {
    if (files.empty()) {
      return pick;
    }
    compact_cursor_[level] %= files.size();
    pick.sources.push_back(files[compact_cursor_[level]]);
    compact_cursor_[level] =
        (compact_cursor_[level] + 1) % std::max<size_t>(files.size(), 1);
  }
  std::string lo;
  std::string hi;
  for (const TableRef& t : pick.sources) {
    if (lo.empty() || t->smallest < lo) {
      lo = t->smallest;
    }
    if (hi.empty() || hi < t->largest) {
      hi = t->largest;
    }
  }
  // The merge also reads every out-level file the inputs overlap.
  for (const TableRef& t : current_->levels[pick.out_level]) {
    if (RangesOverlap(*t, lo, hi)) {
      pick.sources.push_back(t);
    }
  }
  return pick;
}

sim::Task<Status> LsmDb::Compact(int level) {
  IoTag tag = Tag(AppRequest::kPut, InternalOp::kCompact);
  const SimTime compact_start = loop_.Now();
  scheduler_.tracker().RecordTrigger(slot_, AppRequest::kPut,
                                     InternalOp::kCompact);
  const CompactionPick pick = PickCompaction(level);
  const std::vector<TableRef>& sources = pick.sources;
  if (sources.empty()) {
    scheduler_.tracker().RecordInternalOpDone(slot_, InternalOp::kCompact);
    co_return Status::Ok();
  }

  // Trace: the compaction span parents under the first source table's
  // lineage (the FLUSH/COMPACT that built it), links the other tables'
  // lineage spans plus a sample of the app-request origins riding them —
  // the fan-in edge set that lets a viewer walk COMPACT device IO back to
  // the PUTs whose bytes it rewrites.
  obs::SpanCollector* spans = scheduler_.spans();
  obs::SpanLinkSet fan_in;
  obs::SpanLinkSet origins;
  TraceContext compact_parent;
  if (spans != nullptr) {
    for (const TableRef& t : sources) {
      if (!compact_parent.valid()) {
        compact_parent = t->lineage;
      } else {
        fan_in.Add(t->lineage);
      }
      origins.Merge(t->origin_links);
    }
    tag.ctx = compact_parent.valid() ? spans->MintChild(compact_parent)
                                     : spans->MintAlways();
  }

  // Merge: read everything (sequential COMPACT reads), keep only the
  // newest version of each user key; tombstones die where the pick says.
  std::vector<Record> merged;
  Status read = co_await ReadTables(sources, tag, kMaxSequenceNumber, &merged);
  if (dead_) {
    co_return Status::Unavailable("db killed");
  }
  if (!read.ok()) {
    scheduler_.tracker().RecordInternalOpDone(slot_, InternalOp::kCompact);
    co_return read;
  }
  KeepNewest(&merged, pick.drop_tombstones);

  // Write outputs split at the pick's file size.
  std::vector<TableRef> outputs;
  size_t begin = 0;
  uint64_t bytes = 0;
  for (size_t i = 0; i <= merged.size(); ++i) {
    const bool flush_now =
        i == merged.size() ? i > begin
                           : bytes >= pick.split_bytes && i > begin;
    if (flush_now) {
      auto built = co_await BuildTable(
          std::span<const Record>(merged).subspan(begin, i - begin), tag);
      if (dead_) {
        co_return Status::Unavailable("db killed");  // outputs dtor-reclaimed
      }
      if (!built.ok()) {
        scheduler_.tracker().RecordInternalOpDone(slot_,
                                                  InternalOp::kCompact);
        co_return built.status();
      }
      (*built)->lineage = tag.ctx;
      (*built)->origin_links = origins;
      outputs.push_back(*built);
      begin = i;
      bytes = 0;
    }
    if (i < merged.size()) {
      bytes += EncodedRecordBytes(merged[i].key, merged[i].value);
    }
  }

  // Install: drop the sources, add the outputs, against the *latest*
  // version (flushes may have prepended newer level-0 files meanwhile;
  // they are preserved).
  auto is_source = [&](const TableRef& t) {
    return std::find(sources.begin(), sources.end(), t) != sources.end();
  };
  auto next = std::make_shared<Version>(*current_);
  for (auto& files : next->levels) {
    files.erase(std::remove_if(files.begin(), files.end(), is_source),
                files.end());
  }
  auto& out_files = next->levels[pick.out_level];
  if (pick.newest_first) {
    out_files.insert(out_files.begin(), outputs.begin(), outputs.end());
  } else {
    out_files.insert(out_files.end(), outputs.begin(), outputs.end());
    std::sort(out_files.begin(), out_files.end(),
              [](const TableRef& a, const TableRef& b) {
                return a->smallest < b->smallest;
              });
  }
  current_ = next;
  ++stats_.compactions;
  for (const TableRef& t : sources) {
    stats_.compact_bytes_read += t->size_bytes;
  }
  uint64_t output_bytes = 0;
  for (const TableRef& t : outputs) {
    output_bytes += t->size_bytes;
  }
  stats_.compact_bytes_written += output_bytes;
  stats_.compact_ns += static_cast<uint64_t>(loop_.Now() - compact_start);
  fan_in.Merge(origins);  // the span links the fan-in, then the origins
  RecordJobSpan(spans, tag, compact_parent.span_id, compact_start,
                output_bytes, fan_in);
  scheduler_.tracker().RecordInternalOpDone(slot_, InternalOp::kCompact);
  stall_cv_.NotifyAll();  // level-0 pressure may have cleared
  co_return Status::Ok();
}

sim::Task<void> LsmDb::WaitIdle() {
  while (!dead_ && (flush_running_ || compaction_running_ || imm_ != nullptr)) {
    co_await sim::SleepFor(loop_, 10 * kMillisecond);
  }
}

void LsmDb::Kill() {
  if (dead_) {
    return;
  }
  dead_ = true;
  // Wake stalled writers so they observe the crash and unwind.
  stall_cv_.NotifyAll();
}

sim::Task<Status> LsmDb::ScanLive(
    const iosched::IoTag& tag,
    const std::function<void(std::string_view key, std::string_view value)>&
        fn) {
  const OpGuard guard(this);
  if (dead_) {
    co_return Status::Unavailable("db killed");
  }
  const SequenceNumber snapshot = seq_;
  // Pin the version and both memtables before any suspension: the merge
  // below must see one consistent cut of the tree. The memtable records are
  // views taken now, valid while the pins keep the memtables, and the WAL
  // segments they pin, alive (a seal or flush during the table reads drops
  // only the DB's reference);
  // table records are views, valid while `base` holds the tables.
  const VersionRef base = current_;
  const std::shared_ptr<const MemTable> pinned[] = {mem_, imm_};
  std::vector<Record> records;
  for (const std::shared_ptr<const MemTable>& mt : pinned) {
    if (mt == nullptr) {
      continue;
    }
    MemTable::Iterator it(mt.get());
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      const MemTable::Entry& e = it.entry();
      records.push_back(Record{e.key, e.value, e.seq, e.type});
    }
  }
  for (const std::vector<TableRef>& level : base->levels) {
    if (Status s = co_await ReadTables(level, tag, snapshot, &records);
        !s.ok()) {
      co_return s;
    }
  }
  KeepNewest(&records, /*drop_tombstones=*/true);
  for (const Record& r : records) {
    fn(r.key, r.value);
  }
  co_return Status::Ok();
}

sim::Task<Status> LsmDb::ReadTables(const std::vector<TableRef>& tables,
                                    const IoTag& tag, SequenceNumber snapshot,
                                    std::vector<Record>* out) {
  for (const TableRef& t : tables) {
    Status s =
        co_await t->reader->ScanAll(tag, [out, snapshot](const Record& r) {
          if (r.seq <= snapshot) {
            out->push_back(r);
          }
        });
    if (dead_) {
      co_return Status::Unavailable("db killed");
    }
    if (!s.ok()) {
      co_return s;
    }
  }
  co_return Status::Ok();
}

void LsmDb::KeepNewest(std::vector<Record>* records, bool drop_tombstones) {
  std::sort(records->begin(), records->end(),
            [](const Record& a, const Record& b) {
              return CompareInternalKey(a.key, a.seq, b.key, b.seq) < 0;
            });
  size_t kept = 0;
  for (size_t i = 0; i < records->size(); ++i) {
    const Record& r = (*records)[i];
    if (i > 0 && r.key == (*records)[i - 1].key) {
      continue;  // shadowed older version (by a kept or dropped record)
    }
    if (drop_tombstones && r.type == ValueType::kDelete) {
      continue;
    }
    (*records)[kept++] = r;
  }
  records->resize(kept);
}

LsmStats LsmDb::stats() const {
  LsmStats s = stats_;
  s.wal_appends = wal_counters_.appends;
  s.wal_batches = wal_counters_.batches;
  s.wal_batched_records = wal_counters_.batched_records;
  s.wal_max_batch_records = wal_counters_.max_batch_records;
  s.bloom_probes = read_counters_.bloom_probes;
  s.bloom_negatives = read_counters_.bloom_negatives;
  s.bloom_false_positives = read_counters_.bloom_false_positives;
  s.filter_block_reads = read_counters_.filter_block_reads;
  s.data_block_reads = read_counters_.data_block_reads;
  constexpr int kIdx = static_cast<int>(BlockCache::Kind::kIndex);
  constexpr int kFlt = static_cast<int>(BlockCache::Kind::kFilter);
  constexpr int kDat = static_cast<int>(BlockCache::Kind::kData);
  const BlockCache::TenantCounters tc = cache_.CountersOf(slot_);
  s.bcache_index_hits = tc.hits[kIdx];
  s.bcache_index_misses = tc.misses[kIdx];
  s.bcache_filter_hits = tc.hits[kFlt];
  s.bcache_filter_misses = tc.misses[kFlt];
  s.bcache_data_hits = tc.hits[kDat];
  s.bcache_data_misses = tc.misses[kDat];
  // Every index load asks the cache first, and only GETs look up data
  // blocks, so these two are the cache's own counts.
  s.index_block_reads = s.bcache_index_misses;
  s.data_cache_hits = s.bcache_data_hits;
  s.bcache_evictions = tc.evictions;
  s.bcache_resident_bytes = cache_.resident_bytes();
  s.bcache_capacity_bytes = cache_.capacity_bytes();
  for (const auto& files : current_->levels) {
    s.files_per_level.push_back(static_cast<int>(files.size()));
  }
  return s;
}

std::string LsmDb::DebugCheckInvariants() const {
  for (int level = 0; level < options_.num_levels; ++level) {
    const std::vector<TableRef>& files = current_->levels[level];
    const bool overlapping = Overlapping(level);
    for (size_t i = 1; i < files.size(); ++i) {
      const TableHandle& prev = *files[i - 1];
      const TableHandle& t = *files[i];
      if (overlapping && prev.number < t.number) {
        return "L" + std::to_string(level) + " not newest-first at index " +
               std::to_string(i);
      }
      if (!overlapping && prev.largest >= t.smallest) {
        return "L" + std::to_string(level) + " overlap: [" + prev.smallest +
               "," + prev.largest + "] vs [" + t.smallest + "," + t.largest +
               "]";
      }
    }
  }
  return "";
}

}  // namespace libra::lsm
