#include "src/fs/sim_fs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace libra::fs {

namespace {

// Smallest capacity of an append segment: an idle or nearly idle log
// (one per tenant partition) costs about what it holds.
constexpr uint64_t kMinSegmentBytes = 256;

}  // namespace

Segment::Segment(uint64_t capacity)
    : raw_(new char[capacity]),
      data_(raw_.get()),
      capacity_(capacity),
      size_(0) {}

Segment::Segment(std::string bytes)
    : owned_(std::move(bytes)),
      data_(owned_.data()),
      capacity_(owned_.size()),
      size_(owned_.size()) {}

SimFs::SimFs(iosched::IoScheduler& scheduler, ssd::SsdDevice& device,
             uint32_t extent_bytes)
    : scheduler_(scheduler), device_(device), extent_bytes_(extent_bytes) {
  assert(extent_bytes_ >= 64 * 1024);
  num_extents_ = device_.profile().capacity_bytes / extent_bytes_;
  free_extents_.reserve(num_extents_);
  for (uint64_t e = num_extents_; e > 0; --e) {
    free_extents_.push_back(static_cast<uint32_t>(e - 1));
  }
}

SimFs::File* SimFs::Lookup(FileId id) const {
  const uint64_t index = (id & 0xFFFFFFFFu) - 1;  // kInvalidFile wraps
  if (index >= files_.size()) {
    return nullptr;
  }
  const FileSlot& slot = files_[index];
  return slot.generation == (id >> 32) ? slot.file.get() : nullptr;
}

StatusOr<FileId> SimFs::Create(const std::string& name) {
  if (names_.count(name) > 0) {
    return Status::AlreadyExists(name);
  }
  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<uint32_t>(files_.size());
    files_.emplace_back();
  }
  FileSlot& slot = files_[index];
  slot.file = std::make_unique<File>();
  slot.file->name = name;
  ++live_files_;
  const FileId id = (static_cast<uint64_t>(slot.generation) << 32) |
                    (static_cast<uint64_t>(index) + 1);
  names_.emplace(name, id);
  return id;
}

StatusOr<FileId> SimFs::Open(const std::string& name) const {
  const auto it = names_.find(name);
  if (it == names_.end()) {
    return Status::NotFound(name);
  }
  return it->second;
}

bool SimFs::Exists(const std::string& name) const {
  return names_.count(name) > 0;
}

Status SimFs::Delete(const std::string& name) {
  const auto it = names_.find(name);
  if (it == names_.end()) {
    return Status::NotFound(name);
  }
  File* f = Lookup(it->second);
  assert(f != nullptr);
  for (uint32_t e : f->extents) {
    device_.Trim(static_cast<uint64_t>(e) * extent_bytes_, extent_bytes_);
    free_extents_.push_back(e);
  }
  const uint32_t index = static_cast<uint32_t>((it->second & 0xFFFFFFFFu) - 1);
  files_[index].file.reset();
  ++files_[index].generation;
  free_slots_.push_back(index);
  --live_files_;
  names_.erase(it);
  return Status::Ok();
}

Status SimFs::Rename(const std::string& from, const std::string& to) {
  const auto it = names_.find(from);
  if (it == names_.end()) {
    return Status::NotFound(from);
  }
  if (names_.count(to) > 0) {
    return Status::AlreadyExists(to);
  }
  const FileId id = it->second;
  names_.erase(it);
  names_.emplace(to, id);
  Lookup(id)->name = to;
  return Status::Ok();
}

std::vector<std::string> SimFs::List(std::string_view prefix) const {
  std::vector<std::string> out;
  for (auto it = names_.lower_bound(prefix);
       it != names_.end() && it->first.starts_with(prefix); ++it) {
    out.push_back(it->first);
  }
  return out;
}

uint64_t SimFs::DiskAddress(const File& f, uint64_t offset) const {
  const uint64_t idx = offset / extent_bytes_;
  assert(idx < f.extents.size());
  return static_cast<uint64_t>(f.extents[idx]) * extent_bytes_ +
         offset % extent_bytes_;
}

bool SimFs::EnsureCapacity(File& f, uint64_t size) {
  const uint64_t needed = (size + extent_bytes_ - 1) / extent_bytes_;
  while (f.extents.size() < needed) {
    if (free_extents_.empty()) {
      return false;
    }
    f.extents.push_back(free_extents_.back());
    free_extents_.pop_back();
  }
  return true;
}

sim::Task<void> SimFs::WriteExtents(const File& f, const iosched::IoTag& tag,
                                    uint64_t offset, uint64_t length) {
  uint64_t done = 0;
  while (done < length) {
    const uint64_t pos = offset + done;
    const uint64_t in_extent = extent_bytes_ - pos % extent_bytes_;
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(in_extent, length - done));
    co_await scheduler_.Write(tag, DiskAddress(f, pos), len);
    done += len;
  }
}

StoredBytes SimFs::Store(File& f, uint64_t n, Encoder encode) {
  if (f.segments.empty() ||
      f.segments.back()->capacity_ - f.segments.back()->size_ < n) {
    // Room for the append and an eighth of the file so far (from 256 B up
    // to an extent): capacities grow geometrically, and the unused room at
    // the tail stays within about an eighth of the file.
    const uint64_t room =
        std::clamp<uint64_t>(f.size / 8, kMinSegmentBytes, extent_bytes_);
    f.segments.push_back(std::make_shared<Segment>(std::max(room, n)));
  }
  Segment& tail = *f.segments.back();
  char* dst = tail.data_ + tail.size_;
  encode(dst);
  tail.size_ += n;
  f.size += n;
  return StoredBytes{std::string_view(dst, n), f.segments.back()};
}

std::pair<size_t, uint64_t> SimFs::SegmentAt(const File& f,
                                             uint64_t offset) const {
  uint64_t start = 0;
  size_t i = 0;
  while (offset >= start + f.segments[i]->size_) {
    start += f.segments[i]->size_;
    ++i;
  }
  return {i, start};
}

std::pair<std::string_view, size_t> SimFs::ViewOf(File& f, uint64_t offset,
                                                  uint64_t length) {
  const auto [first, start] = SegmentAt(f, offset);
  if (offset + length > start + f.segments[first]->size_) {
    // The range spans segments: merge them into one. The old ones leave
    // the file, and live on only where pinned.
    size_t last = first;
    for (uint64_t end = start; end < offset + length; ++last) {
      end += f.segments[last]->size_;
    }
    std::shared_ptr<Segment> merged = CopyOf(f, first, last);
    f.segments.erase(f.segments.begin() + static_cast<ptrdiff_t>(first) + 1,
                     f.segments.begin() + static_cast<ptrdiff_t>(last));
    f.segments[first] = std::move(merged);
  }
  return {std::string_view(f.segments[first]->data_ + (offset - start),
                           length),
          first};
}

std::shared_ptr<Segment> SimFs::CopyOf(const File& f, size_t first,
                                       size_t last) {
  uint64_t bytes = 0;
  for (size_t i = first; i < last; ++i) {
    bytes += f.segments[i]->size_;
  }
  auto copy = std::make_shared<Segment>(bytes);
  for (size_t i = first; i < last; ++i) {
    const Segment& part = *f.segments[i];
    std::memcpy(copy->data_ + copy->size_, part.data_, part.size_);
    copy->size_ += part.size_;
  }
  return copy;
}

Segment& SimFs::Unshare(File& f, size_t i) {
  if (f.segments[i].use_count() > 1) {
    f.segments[i] = CopyOf(f, i, i + 1);
  }
  return *f.segments[i];
}

sim::Task<StatusOr<StoredBytes>> SimFs::Append(FileId file,
                                               const iosched::IoTag& tag,
                                               uint64_t n, Encoder encode) {
  // A batch of one contributor issues exactly a plain append's IO.
  assert(n <= UINT32_MAX);
  return AppendShared(file, {{tag, static_cast<uint32_t>(n)}}, n, encode);
}

sim::Task<Status> SimFs::WriteFile(FileId file, const iosched::IoTag& tag,
                                   std::string data, uint32_t chunk_bytes) {
  File* f = Lookup(file);
  if (f == nullptr) {
    co_return Status::NotFound("bad file id");
  }
  if (chunk_bytes == 0) {
    co_return Status::InvalidArgument("WriteFile needs chunk_bytes > 0");
  }
  if (f->size != 0) {
    co_return Status::FailedPrecondition("WriteFile needs an empty file");
  }
  f->segments.assign(1, std::make_shared<Segment>(std::move(data)));
  const uint64_t total = f->segments[0]->size_;
  // Each piece is reserved (extents, visible size) only when its turn
  // comes, as the Append of that piece would have done.
  while (f->size < total) {
    const uint64_t offset = f->size;
    const uint64_t len = std::min<uint64_t>(chunk_bytes, total - offset);
    if (!EnsureCapacity(*f, offset + len)) {
      f->segments[0]->size_ = offset;  // the unwritten tail never existed
      co_return Status::ResourceExhausted("filesystem full");
    }
    f->size = offset + len;
    co_await WriteExtents(*f, tag, offset, len);
    // The file may have been deleted while the piece was written (a
    // restarted DB reclaims a killed one's unfinished tables).
    f = Lookup(file);
    if (f == nullptr) {
      co_return Status::NotFound("bad file id");
    }
  }
  co_return Status::Ok();
}

sim::Task<StatusOr<StoredBytes>> SimFs::AppendShared(
    FileId file, std::vector<iosched::IoShare> manifest, uint64_t n,
    Encoder encode) {
  File* f = Lookup(file);
  if (f == nullptr) {
    co_return Status::NotFound("bad file id");
  }
  if (n == 0) {
    co_return StoredBytes{};
  }
  assert(!manifest.empty());
  assert((f->segments.empty() || f->segments.back()->size_ <= f->size) &&
         "Append during a WriteFile");
  // Reserve the range synchronously so concurrent appenders do not
  // interleave byte ranges (the parallel-writes modification of §5); the
  // device IO below then overlaps freely.
  const uint64_t offset = f->size;
  if (!EnsureCapacity(*f, offset + n)) {
    co_return Status::ResourceExhausted("filesystem full");
  }
  StoredBytes stored = Store(*f, n, encode);

  if (manifest.size() == 1) {
    // One contributor: plain writes under its own tag.
    const iosched::IoTag tag = manifest[0].tag;
    co_await WriteExtents(*f, tag, offset, n);
    co_return stored;
  }

  // One shared device write per contiguous disk segment, each carrying the
  // slice of the manifest that overlaps its byte range (the scheduler
  // further slices per chunk and splits costs with the exact-sum rule).
  uint64_t done = 0;
  while (done < n) {
    const uint64_t pos = offset + done;
    const uint64_t in_extent = extent_bytes_ - pos % extent_bytes_;
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(in_extent, n - done));
    const uint64_t seg_lo = done;
    const uint64_t seg_hi = done + len;
    std::vector<iosched::IoShare> slice;
    uint64_t share_pos = 0;
    for (const iosched::IoShare& s : manifest) {
      const uint64_t s_lo = share_pos;
      share_pos += s.bytes;
      if (share_pos <= seg_lo) {
        continue;
      }
      if (s_lo >= seg_hi) {
        break;
      }
      const uint32_t overlap = static_cast<uint32_t>(
          std::min(share_pos, seg_hi) - std::max(s_lo, seg_lo));
      slice.push_back({s.tag, overlap});
    }
    co_await scheduler_.WriteShared(DiskAddress(*f, pos), len,
                                    std::move(slice));
    done += len;
  }
  co_return stored;
}

sim::Task<StatusOr<std::string_view>> SimFs::ReadView(
    FileId file, const iosched::IoTag& tag, uint64_t offset,
    uint64_t length) {
  File* f = Lookup(file);
  if (f == nullptr) {
    co_return Status::NotFound("bad file id");
  }
  if (offset + length > f->size) {
    co_return Status::OutOfRange("read past EOF");
  }
  uint64_t done = 0;
  while (done < length) {
    const uint64_t pos = offset + done;
    const uint64_t in_extent = extent_bytes_ - pos % extent_bytes_;
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(in_extent, length - done));
    co_await scheduler_.Read(tag, DiskAddress(*f, pos), len);
    done += len;
  }
  if (length == 0) {
    co_return std::string_view();
  }
  co_return ViewOf(*f, offset, length).first;
}

sim::Task<Status> SimFs::ReadAt(FileId file, const iosched::IoTag& tag,
                                uint64_t offset, uint64_t length,
                                std::string* out) {
  StatusOr<std::string_view> bytes =
      co_await ReadView(file, tag, offset, length);
  if (!bytes.ok()) {
    co_return bytes.status();
  }
  out->assign(bytes->data(), bytes->size());
  co_return Status::Ok();
}

uint64_t SimFs::SizeOf(FileId file) const {
  const File* f = Lookup(file);
  return f == nullptr ? 0 : f->size;
}

StatusOr<StoredBytes> SimFs::PeekView(FileId file, uint64_t offset,
                                      uint64_t length) {
  File* f = Lookup(file);
  if (f == nullptr) {
    return Status::NotFound("bad file id");
  }
  if (offset + length > f->size) {
    return Status::OutOfRange("peek past EOF");
  }
  if (length == 0) {
    return StoredBytes{};
  }
  const auto [bytes, segment] = ViewOf(*f, offset, length);
  return StoredBytes{bytes, f->segments[segment]};
}

Status SimFs::PeekContents(FileId file, std::string* out) const {
  const File* f = Lookup(file);
  if (f == nullptr) {
    return Status::NotFound("bad file id");
  }
  out->clear();
  out->reserve(f->size);
  for (const std::shared_ptr<Segment>& seg : f->segments) {
    out->append(seg->data_,
                std::min<uint64_t>(seg->size_, f->size - out->size()));
  }
  return Status::Ok();
}

Status SimFs::Truncate(const std::string& name, uint64_t size) {
  const auto it = names_.find(name);
  if (it == names_.end()) {
    return Status::NotFound(name);
  }
  File* f = Lookup(it->second);
  assert(f != nullptr);
  if (size < f->size) {
    if (size == 0) {
      f->segments.clear();
    } else {
      // Keep the segment holding the last kept byte, cut to end there.
      const auto [i, start] = SegmentAt(*f, size - 1);
      f->segments.resize(i + 1);
      Unshare(*f, i).size_ = size - start;
    }
    f->size = size;
  }
  return Status::Ok();
}

Status SimFs::CorruptByte(const std::string& name, uint64_t offset,
                          uint8_t mask) {
  const auto it = names_.find(name);
  if (it == names_.end()) {
    return Status::NotFound(name);
  }
  File* f = Lookup(it->second);
  assert(f != nullptr);
  if (offset >= f->size) {
    return Status::OutOfRange("corrupt past EOF");
  }
  const auto [i, start] = SegmentAt(*f, offset);
  char& byte = Unshare(*f, i).data_[offset - start];
  byte = static_cast<char>(static_cast<uint8_t>(byte) ^ mask);
  return Status::Ok();
}

FsStats SimFs::stats() const {
  FsStats s;
  s.files = live_files_;
  for (const FileSlot& slot : files_) {
    if (slot.file != nullptr) {
      s.bytes_used += slot.file->size;
    }
  }
  s.extents_free = free_extents_.size();
  return s;
}

}  // namespace libra::fs
