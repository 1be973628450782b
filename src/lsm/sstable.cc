#include "src/lsm/sstable.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <tuple>
#include <utility>

namespace libra::lsm {

SstableBuilder::SstableBuilder(fs::SimFs& fs, fs::FileId file,
                               SstableOptions options)
    : fs_(fs), file_(file), options_(options) {}

void SstableBuilder::Reserve(std::span<const Record> records) {
  uint64_t bytes = 16;  // footer
  for (const Record& r : records) {
    // The record, plus an index entry as if it closed a block of its own.
    bytes += EncodedRecordBytes(r.key, r.value) + 16 + r.key.size();
  }
  if (options_.bloom_bits_per_key > 0) {
    // At least 64 filter bits, rounded up to bytes, plus the probe count.
    bytes += (records.size() * options_.bloom_bits_per_key + 64) / 8 + 2;
  }
  buffer_.reserve(buffer_.size() + bytes);
}

void SstableBuilder::Add(std::string_view key, SequenceNumber seq,
                         ValueType type, std::string_view value) {
  assert(!finished_);
  if (options_.bloom_bits_per_key > 0 &&
      (num_entries_ == 0 || KeyAt(last_key_) != key)) {
    filter_hashes_.push_back(BloomHash(key));
  }
  last_key_ = KeyPos{buffer_.size() + 4, static_cast<uint32_t>(key.size())};
  if (num_entries_ == 0) {
    first_key_ = last_key_;
  }
  EncodeRecord(&buffer_, key, seq, type, value);
  ++num_entries_;
  if (buffer_.size() - block_start_ >= options_.block_bytes) {
    CloseBlock();
  }
}

void SstableBuilder::CloseBlock() {
  if (buffer_.size() == block_start_) {
    return;
  }
  const auto size = static_cast<uint32_t>(buffer_.size() - block_start_);
  index_.push_back(IndexEntry{last_key_, block_start_, size});
  block_start_ = buffer_.size();
}

sim::Task<Status> SstableBuilder::Finish(const iosched::IoTag& tag) {
  assert(!finished_);
  finished_ = true;
  CloseBlock();
  // Append the index block, the filter block (when filters are on; the
  // footer does not describe it — its region is whatever lies between the
  // index end and the footer, so bits_per_key 0 leaves the file
  // byte-identical to the pre-filter format), and the footer.
  const uint64_t index_offset = buffer_.size();
  uint64_t index_bytes = 0;
  for (const IndexEntry& e : index_) {
    index_bytes += 16 + e.last_key.size;
  }
  // The index keys are copied from the buffer into itself: it must not
  // move while they are appended.
  buffer_.reserve(index_offset + index_bytes);
  for (const IndexEntry& e : index_) {
    PutLengthPrefixed(&buffer_, KeyAt(e.last_key));
    PutFixed64(&buffer_, e.offset);
    PutFixed32(&buffer_, e.size);
  }
  if (options_.bloom_bits_per_key > 0) {
    BloomFilterBuildFromHashes(filter_hashes_, options_.bloom_bits_per_key,
                               &buffer_);
  }
  PutFixed64(&buffer_, index_offset);
  PutFixed64(&buffer_, index_bytes);
  co_return co_await fs_.WriteFile(file_, tag, std::move(buffer_),
                                   options_.write_chunk_bytes);
}

SstableReader::SstableReader(fs::SimFs& fs, fs::FileId file,
                             SstableOptions options, BlockCache& cache,
                             uint64_t table, iosched::TenantId tenant,
                             TableReadCounters* counters)
    : fs_(fs),
      file_(file),
      options_(options),
      cache_(cache),
      table_(table),
      tenant_(tenant),
      counters_(counters) {}

sim::Task<Status> SstableReader::LoadFooter(const iosched::IoTag& tag) {
  if (footer_cached_) {
    co_return Status::Ok();
  }
  const uint64_t size = fs_.SizeOf(file_);
  if (size < 16) {
    co_return Status::DataLoss("table too small");
  }
  StatusOr<std::string_view> footer =
      co_await fs_.ReadView(file_, tag, size - 16, 16);
  if (!footer.ok()) {
    co_return footer.status();
  }
  index_offset_ = GetFixed64(*footer, 0);
  index_size_ = GetFixed64(*footer, 8);
  if (index_offset_ + index_size_ + 16 > size) {
    co_return Status::DataLoss("bad footer");
  }
  filter_size_ = size - 16 - (index_offset_ + index_size_);
  footer_cached_ = true;
  co_return Status::Ok();
}

sim::Task<StatusOr<std::string_view>> SstableReader::ReadPadded(
    const iosched::IoTag& tag, uint64_t offset, uint64_t size) {
  const uint64_t end = offset + size;
  const uint64_t read_size =
      std::max<uint64_t>(size, std::min<uint64_t>(4096, end));
  const uint64_t read_off = end - read_size;
  StatusOr<std::string_view> read =
      co_await fs_.ReadView(file_, tag, read_off, read_size);
  if (!read.ok()) {
    co_return read.status();
  }
  co_return read->substr(offset - read_off, size);
}

sim::Task<StatusOr<TableIndexRef>> SstableReader::LoadIndex(
    const iosched::IoTag& tag) {
  if (CachedBlockRef hit =
          cache_.Get(tenant_, table_, BlockCache::Kind::kIndex, 0);
      hit != nullptr) {
    co_return hit->index;
  }
  if (Status s = co_await LoadFooter(tag); !s.ok()) {
    co_return s;
  }
  StatusOr<std::string_view> data =
      co_await ReadPadded(tag, index_offset_, index_size_);
  if (!data.ok()) {
    co_return data.status();
  }
  if (counters_ != nullptr) {
    ++counters_->index_block_reads;
  }
  auto index = std::make_shared<TableIndex>();
  size_t off = 0;
  while (off < data->size()) {
    std::string_view key;
    if (!GetLengthPrefixed(*data, &off, &key) || off + 12 > data->size()) {
      co_return Status::DataLoss("bad index entry");
    }
    const uint64_t block_off = GetFixed64(*data, off);
    const uint32_t block_size = GetFixed32(*data, off + 8);
    off += 12;
    index->emplace_back(std::string(key), block_off, block_size);
  }
  TableIndexRef ref = std::move(index);
  auto block = std::make_shared<CachedBlock>();
  block->index = ref;
  cache_.Insert(tenant_, table_, BlockCache::Kind::kIndex, 0, std::move(block),
                index_size_);
  co_return ref;
}

sim::Task<StatusOr<CachedBlockRef>> SstableReader::LoadFilter(
    const iosched::IoTag& tag) {
  if (footer_cached_) {
    if (filter_size_ == 0) {
      co_return CachedBlockRef{};  // known filterless: zero IO, zero probes
    }
    // Only probe once the footer proved a filter exists — otherwise every
    // GET against a filterless table would count a phantom cache miss.
    if (CachedBlockRef hit =
            cache_.Get(tenant_, table_, BlockCache::Kind::kFilter, 0);
        hit != nullptr) {
      co_return hit;
    }
  }
  if (Status s = co_await LoadFooter(tag); !s.ok()) {
    co_return s;
  }
  if (filter_size_ == 0) {
    co_return CachedBlockRef{};
  }
  StatusOr<std::string_view> filter =
      co_await ReadPadded(tag, index_offset_ + index_size_, filter_size_);
  if (!filter.ok()) {
    co_return filter.status();
  }
  if (counters_ != nullptr) {
    ++counters_->filter_block_reads;
  }
  auto block = std::make_shared<CachedBlock>();
  block->bytes = std::string(*filter);
  CachedBlockRef ref = std::move(block);
  cache_.Insert(tenant_, table_, BlockCache::Kind::kFilter, 0, ref,
                filter_size_);
  co_return ref;
}

sim::Task<SstableReader::GetResult> SstableReader::Get(
    const iosched::IoTag& tag, std::string_view key,
    SequenceNumber snapshot) {
  GetResult result;
  // Filter first: a negative probe proves the key absent and skips both
  // the index and the data-block device reads.
  bool filter_maybe = false;
  {
    StatusOr<CachedBlockRef> filter = co_await LoadFilter(tag);
    if (!filter.ok()) {
      result.status = filter.status();
      co_return result;
    }
    if (*filter != nullptr) {
      if (counters_ != nullptr) {
        ++counters_->bloom_probes;
      }
      if (!BloomFilterMayContain((*filter)->bytes, key)) {
        if (counters_ != nullptr) {
          ++counters_->bloom_negatives;
        }
        co_return result;  // definitely not in this table
      }
      filter_maybe = true;
    }
  }
  StatusOr<TableIndexRef> loaded = co_await LoadIndex(tag);
  if (!loaded.ok()) {
    result.status = loaded.status();
    co_return result;
  }
  const TableIndex& index = **loaded;  // ref pins past eviction
  // First block whose last key >= lookup key.
  const auto it = std::lower_bound(
      index.begin(), index.end(), key,
      [](const auto& entry, std::string_view k) {
        return std::string_view(std::get<0>(entry)) < k;
      });
  if (it == index.end()) {
    // Key larger than everything in the table — a filter that said maybe
    // was wrong.
    if (filter_maybe && counters_ != nullptr) {
      ++counters_->bloom_false_positives;
    }
    co_return result;
  }
  const uint64_t block_off = std::get<1>(*it);
  CachedBlockRef data_ref;
  std::string_view block;  // the cached copy, or a view of the file
  const bool data_cached = cache_.caches_data();
  if (data_cached) {
    data_ref = cache_.Get(tenant_, table_, BlockCache::Kind::kData, block_off);
  }
  if (data_ref != nullptr) {
    if (counters_ != nullptr) {
      ++counters_->data_cache_hits;  // zero device IO
    }
    block = data_ref->bytes;
  } else {
    StatusOr<std::string_view> read =
        co_await fs_.ReadView(file_, tag, block_off, std::get<2>(*it));
    if (!read.ok()) {
      result.status = read.status();
      co_return result;
    }
    if (counters_ != nullptr) {
      ++counters_->data_block_reads;
    }
    block = *read;
    if (data_cached) {
      auto filled = std::make_shared<CachedBlock>();
      filled->bytes = std::string(block);
      cache_.Insert(tenant_, table_, BlockCache::Kind::kData, block_off,
                    filled, filled->bytes.size());
    }
  }
  // Scan the block for the newest visible entry (records are in internal
  // order: the first match with seq <= snapshot wins).
  size_t off = 0;
  Record rec;
  while (off < block.size() && DecodeRecord(block, &off, &rec)) {
    if (rec.key == key && rec.seq <= snapshot) {
      result.found = true;
      if (rec.type == ValueType::kDelete) {
        result.deleted = true;
      } else {
        result.value = std::string(rec.value);
      }
      co_return result;
    }
    if (rec.key > key) {
      break;
    }
  }
  if (filter_maybe && counters_ != nullptr) {
    ++counters_->bloom_false_positives;
  }
  co_return result;
}

sim::Task<Status> SstableReader::RangeCursor::SkipTo(std::string_view start,
                                                     bool bounded) {
  valid_ = false;
  while (true) {
    while (offset_ < block_.size()) {
      if (!DecodeRecord(block_, &offset_, &record_)) {
        co_return Status::DataLoss("bad data block");
      }
      if (!bounded || record_.key >= start) {
        valid_ = true;
        co_return Status::Ok();
      }
    }
    if (next_block_ >= index_->size()) {
      co_return Status::Ok();  // clean end of table, cursor invalid
    }
    const auto& entry = (*index_)[next_block_];
    StatusOr<std::string_view> block = co_await fs_.ReadView(
        file_, tag_, std::get<1>(entry), std::get<2>(entry));
    if (!block.ok()) {
      co_return block.status();
    }
    block_ = *block;
    offset_ = 0;
    ++next_block_;
  }
}

sim::Task<Status> SstableReader::RangeCursor::Next() {
  return SkipTo({}, /*bounded=*/false);
}

sim::Task<StatusOr<std::unique_ptr<SstableReader::RangeCursor>>>
SstableReader::Seek(const iosched::IoTag& tag, std::string_view start) {
  StatusOr<TableIndexRef> loaded = co_await LoadIndex(tag);
  if (!loaded.ok()) {
    co_return loaded.status();
  }
  std::unique_ptr<RangeCursor> cursor(
      new RangeCursor(fs_, file_, tag, *loaded));
  // Records before the first block whose last key >= start all compare
  // below the seek key; start loading there.
  const TableIndex& index = **loaded;
  const auto it = std::lower_bound(
      index.begin(), index.end(), start,
      [](const auto& entry, std::string_view k) {
        return std::string_view(std::get<0>(entry)) < k;
      });
  cursor->next_block_ = static_cast<size_t>(it - index.begin());
  if (Status s = co_await cursor->SkipTo(start, /*bounded=*/true); !s.ok()) {
    co_return s;
  }
  co_return cursor;
}

sim::Task<Status> SstableReader::ScanAll(
    const iosched::IoTag& tag,
    const std::function<void(const Record&)>& fn) {
  StatusOr<TableIndexRef> loaded = co_await LoadIndex(tag);
  if (!loaded.ok()) {
    co_return loaded.status();
  }
  const TableIndex& index = **loaded;
  if (index.empty()) {
    co_return Status::Ok();
  }
  const uint64_t data_end =
      std::get<1>(index.back()) + std::get<2>(index.back());
  std::string_view chunk;
  for (uint64_t pos = 0; pos < data_end; pos += chunk.size()) {
    const uint64_t len =
        std::min<uint64_t>(options_.write_chunk_bytes, data_end - pos);
    StatusOr<std::string_view> read =
        co_await fs_.ReadView(file_, tag, pos, len);
    if (!read.ok()) {
      co_return read.status();
    }
    chunk = *read;
  }
  // The chunks are consecutive views of one stored file, and the last one,
  // taken after all the IO, ends at data_end: the data section is the
  // data_end bytes before its end. Records never span blocks and blocks are
  // contiguous, so a single linear decode covers it.
  const std::string_view data(chunk.data() + chunk.size() - data_end,
                              data_end);
  size_t off = 0;
  Record rec;
  while (off < data.size() && DecodeRecord(data, &off, &rec)) {
    fn(rec);
  }
  co_return Status::Ok();
}

}  // namespace libra::lsm
