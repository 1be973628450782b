// Simulated filesystem backing the persistence engine.
//
// Files hold real bytes (the LSM engine's correctness is tested end to
// end), while every read and append is dispatched as a tagged IO task
// through the Libra scheduler and charged against the issuing tenant —
// the O_DIRECT + O_SYNC discipline of the paper's prototype (§5): no page
// cache, writes are durable when the call returns.
//
// Disk space is managed in fixed-size extents mapped onto the SSD's
// logical address space; deleting a file TRIMs its extents so the FTL sees
// the space as dead (as a real filesystem's discard would).
//
// A file's bytes live in never-moving, refcounted segments: an append
// lands whole in the tail segment (or a fresh one), so a view of stored
// bytes stays valid while its segment is pinned, across later appends and
// past a Delete. The WAL's memtable views its records this way (DESIGN.md
// §8).

#ifndef LIBRA_SRC_FS_SIM_FS_H_
#define LIBRA_SRC_FS_SIM_FS_H_

#include <concepts>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/iosched/io_tag.h"
#include "src/iosched/scheduler.h"
#include "src/sim/task.h"
#include "src/ssd/device.h"

namespace libra::fs {

// A file handle: the file's slot in the SimFs file table (low 32 bits,
// index + 1) and that slot's generation (high 32 bits). Delete bumps the
// generation, so an id kept past its file's deletion never reaches a file
// that reuses the slot: every verb fails it as "bad file id".
using FileId = uint64_t;
inline constexpr FileId kInvalidFile = 0;

struct FsStats {
  uint64_t files = 0;
  uint64_t bytes_used = 0;
  uint64_t extents_free = 0;
};

// A run of one file's bytes that never moves. Appends fill it from the
// front up to its fixed capacity; after that the file grows a new one.
class Segment {
 public:
  explicit Segment(uint64_t capacity);  // room for appends, uninitialised
  explicit Segment(std::string bytes);  // adopts a whole written buffer

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

 private:
  friend class SimFs;
  std::string owned_;            // the adopted buffer, if any
  std::unique_ptr<char[]> raw_;  // else the append room
  char* data_;
  uint64_t capacity_;
  uint64_t size_;  // bytes stored
};

// Keeps a segment's bytes alive, e.g. past the Delete of its file.
using SegmentPin = std::shared_ptr<const Segment>;

// Bytes stored in a file and the pin of the segment that holds them.
struct StoredBytes {
  std::string_view bytes;
  SegmentPin pin;
};

// Writes the bytes an append reserved, all of them, at the pointer it is
// given. Refers to `fill` without owning it: pass a named local, alive
// until the append has been awaited.
class Encoder {
 public:
  template <typename F>
    requires(!std::same_as<F, Encoder> && std::invocable<const F&, char*>)
  Encoder(const F& fill)  // NOLINT(google-explicit-constructor)
      : fill_(&fill), call_([](const void* f, char* dst) {
          (*static_cast<const F*>(f))(dst);
        }) {}
  template <typename F>
    requires(!std::same_as<F, Encoder>)
  Encoder(const F&&) = delete;  // a temporary could die before the append
  void operator()(char* dst) const { call_(fill_, dst); }

 private:
  const void* fill_;
  void (*call_)(const void*, char*);
};

class SimFs {
 public:
  // `extent_bytes` is the allocation unit; capacity comes from the device.
  SimFs(iosched::IoScheduler& scheduler, ssd::SsdDevice& device,
        uint32_t extent_bytes = 1024 * 1024);

  SimFs(const SimFs&) = delete;
  SimFs& operator=(const SimFs&) = delete;

  // --- namespace ---

  StatusOr<FileId> Create(const std::string& name);
  StatusOr<FileId> Open(const std::string& name) const;
  bool Exists(const std::string& name) const;
  Status Delete(const std::string& name);
  Status Rename(const std::string& from, const std::string& to);
  // Names starting with `prefix`, sorted (every name when it is empty).
  std::vector<std::string> List(std::string_view prefix = {}) const;

  // --- IO (suspends on the scheduler) ---

  // Appends `n` bytes to the end of the file, contiguous in one segment,
  // which `encode` writes in place before any IO; returns them, pinned,
  // once durable.
  sim::Task<StatusOr<StoredBytes>> Append(FileId file,
                                          const iosched::IoTag& tag,
                                          uint64_t n, Encoder encode);
  // The same, storing a copy of `data`.
  sim::Task<StatusOr<StoredBytes>> Append(FileId file,
                                          const iosched::IoTag& tag,
                                          std::string_view data);

  // Writes an empty file's whole contents: `data` becomes the file's one
  // segment without a copy. Device IO, extent allocation and the visible
  // size advance one `chunk_bytes` piece at a time, exactly as successive
  // Appends of those pieces would (concurrent writers still interleave
  // extents between the pieces). `chunk_bytes` must be positive.
  sim::Task<Status> WriteFile(FileId file, const iosched::IoTag& tag,
                              std::string data, uint32_t chunk_bytes);

  // Appends a batched payload contributed by multiple tags (WAL group
  // commit), `n` bytes written in place by `encode` as in Append: one
  // durable append whose device IOPs carry `manifest` — a byte-ordered
  // cost manifest covering the payload exactly — so the scheduler splits
  // the VOP cost back onto each contributor. Extent-crossing payloads
  // split into per-extent device writes, each carrying the matching slice
  // of the manifest.
  sim::Task<StatusOr<StoredBytes>> AppendShared(
      FileId file, std::vector<iosched::IoShare> manifest, uint64_t n,
      Encoder encode);

  // Reads [offset, offset+length) and returns a view of the stored bytes,
  // taken once the device IO completes. A range that spans segments is
  // first merged into one new segment. The view is valid while its segment
  // is: until the file is deleted, or its segment is replaced by such a
  // merge or by a fault hook's copy. An immutable table is one segment, so
  // its views live as long as the table. Reading past EOF is an error.
  sim::Task<StatusOr<std::string_view>> ReadView(FileId file,
                                                 const iosched::IoTag& tag,
                                                 uint64_t offset,
                                                 uint64_t length);

  // ReadView plus a copy into *out (resized).
  sim::Task<Status> ReadAt(FileId file, const iosched::IoTag& tag,
                           uint64_t offset, uint64_t length,
                           std::string* out);

  uint64_t SizeOf(FileId file) const;
  FsStats stats() const;

  iosched::IoScheduler& scheduler() { return scheduler_; }

  // Host-side peeks at file contents WITHOUT device IO or scheduling. Only
  // for one-shot maintenance paths that happen before a node serves
  // traffic (WAL recovery at open); all serving-path reads must use
  // ReadView so their IO is charged. PeekView pins the viewed bytes
  // (merging a spanning range as ReadView does); PeekContents copies the
  // whole file.
  StatusOr<StoredBytes> PeekView(FileId file, uint64_t offset,
                                 uint64_t length);
  Status PeekContents(FileId file, std::string* out) const;

  // --- fault-injection hooks (host-side, no device IO) ---
  //
  // Crash modeling for recovery tests: a torn tail is a truncation at an
  // arbitrary byte, and media corruption is an in-place bit flip. Both act
  // on the stored bytes only — extent accounting keeps the original
  // allocation, as a real crash would leave blocks allocated past the
  // last valid write. Neither changes a segment someone else pins: the
  // file gets a copy of it first, so bytes already handed out stay as
  // they were.

  // Truncates the file's contents to `size` bytes (no-op if already
  // smaller). Returns kNotFound for an unknown name.
  Status Truncate(const std::string& name, uint64_t size);

  // XORs the byte at `offset` with `mask`. Returns kOutOfRange past EOF.
  Status CorruptByte(const std::string& name, uint64_t offset, uint8_t mask);

 private:
  struct File {
    std::string name;
    // Real contents, in file order. Only the first `size` bytes exist yet:
    // during a WriteFile the rest of its segment is still being written.
    std::vector<std::shared_ptr<Segment>> segments;
    uint64_t size = 0;
    std::vector<uint32_t> extents;  // extent indices, in file order
  };

  // Stores `n` bytes written by `encode` at the end of the file, in the
  // tail segment or a new one, and advances its visible size.
  StoredBytes Store(File& f, uint64_t n, Encoder encode);

  // The stored [offset, offset+length), merging the segments it spans, and
  // the index of the segment that holds it. `length` must be positive.
  std::pair<std::string_view, size_t> ViewOf(File& f, uint64_t offset,
                                             uint64_t length);

  // The segment holding byte `offset` (its index), and the file offset at
  // which that segment starts.
  std::pair<size_t, uint64_t> SegmentAt(const File& f, uint64_t offset) const;

  // A new segment, full, holding the bytes of segments [first, last).
  static std::shared_ptr<Segment> CopyOf(const File& f, size_t first,
                                         size_t last);

  // Makes segment `i` safe to change: a copy when someone else pins it.
  Segment& Unshare(File& f, size_t i);

  // Logical byte address of `offset` within the file, for device timing.
  uint64_t DiskAddress(const File& f, uint64_t offset) const;

  // Grows the extent list to cover `size` bytes. Returns false when full.
  bool EnsureCapacity(File& f, uint64_t size);

  // Issues one device write per contiguous disk segment of the file's
  // [offset, offset+length) (extent-crossing ranges split; the scheduler
  // further chunks large segments).
  sim::Task<void> WriteExtents(const File& f, const iosched::IoTag& tag,
                               uint64_t offset, uint64_t length);

  // The live file `id` names, or nullptr (unknown, deleted or stale id).
  File* Lookup(FileId id) const;

  iosched::IoScheduler& scheduler_;
  ssd::SsdDevice& device_;
  uint32_t extent_bytes_;
  uint64_t num_extents_;

  std::map<std::string, FileId, std::less<>> names_;
  // File table indexed by FileId slot; freed slots are reused (LIFO) under
  // a bumped generation. Files are boxed: a File* stays valid while the
  // table grows.
  struct FileSlot {
    uint32_t generation = 0;
    std::unique_ptr<File> file;  // nullptr while the slot is free
  };
  std::vector<FileSlot> files_;
  std::vector<uint32_t> free_slots_;
  uint64_t live_files_ = 0;
  std::vector<uint32_t> free_extents_;
};

}  // namespace libra::fs

#endif  // LIBRA_SRC_FS_SIM_FS_H_
