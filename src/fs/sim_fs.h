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

#ifndef LIBRA_SRC_FS_SIM_FS_H_
#define LIBRA_SRC_FS_SIM_FS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/iosched/io_tag.h"
#include "src/iosched/scheduler.h"
#include "src/sim/task.h"
#include "src/ssd/device.h"

namespace libra::fs {

using FileId = uint64_t;
inline constexpr FileId kInvalidFile = 0;

struct FsStats {
  uint64_t files = 0;
  uint64_t bytes_used = 0;
  uint64_t extents_free = 0;
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

  // Appends `data` to the end of the file; returns when durable.
  sim::Task<Status> Append(FileId file, const iosched::IoTag& tag,
                           std::string_view data);

  // Writes an empty file's whole contents: `data` becomes the stored bytes
  // without a copy. Device IO, extent allocation and the visible size
  // advance one `chunk_bytes` piece at a time, exactly as successive
  // Appends of those pieces would (concurrent writers still interleave
  // extents between the pieces). `chunk_bytes` must be positive.
  sim::Task<Status> WriteFile(FileId file, const iosched::IoTag& tag,
                              std::string data, uint32_t chunk_bytes);

  // Appends a batched payload contributed by multiple tags (WAL group
  // commit): one durable append whose device IOPs carry `manifest` — a
  // byte-ordered cost manifest covering `data` exactly — so the scheduler
  // splits the VOP cost back onto each contributor. Extent-crossing
  // payloads split into per-segment device writes, each carrying the
  // matching slice of the manifest.
  sim::Task<Status> AppendShared(FileId file,
                                 std::vector<iosched::IoShare> manifest,
                                 std::string_view data);

  // Reads [offset, offset+length) and returns a view of the stored bytes,
  // taken once the device IO completes. The view stays valid until the file
  // is next appended to, truncated or deleted; for an immutable table, as
  // long as the table lives. Reading past EOF is an error.
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

  // Host-side peek at file contents WITHOUT device IO or scheduling. Only
  // for one-shot maintenance paths that happen before a node serves
  // traffic (WAL recovery at open); all serving-path reads must use
  // ReadAt so their IO is charged.
  Status PeekContents(FileId file, std::string* out) const;

  // --- fault-injection hooks (host-side, no device IO) ---
  //
  // Crash modeling for recovery tests: a torn tail is a truncation at an
  // arbitrary byte, and media corruption is an in-place bit flip. Both act
  // on the stored bytes only — extent accounting keeps the original
  // allocation, as a real crash would leave blocks allocated past the
  // last valid write.

  // Truncates the file's contents to `size` bytes (no-op if already
  // smaller). Returns kNotFound for an unknown name.
  Status Truncate(const std::string& name, uint64_t size);

  // XORs the byte at `offset` with `mask`. Returns kOutOfRange past EOF.
  Status CorruptByte(const std::string& name, uint64_t offset, uint8_t mask);

 private:
  struct File {
    std::string name;
    // Real contents. Only the first `size` bytes exist yet: during a
    // WriteFile the rest of its buffer is still being written.
    std::string data;
    uint64_t size = 0;
    std::vector<uint32_t> extents;  // extent indices, in file order
  };

  // Logical byte address of `offset` within the file, for device timing.
  uint64_t DiskAddress(const File& f, uint64_t offset) const;

  // Grows the extent list to cover `size` bytes. Returns false when full.
  bool EnsureCapacity(File& f, uint64_t size);

  // Issues one device write per contiguous disk segment of the file's
  // [offset, offset+length) (extent-crossing ranges split; the scheduler
  // further chunks large segments).
  sim::Task<void> WriteExtents(const File& f, const iosched::IoTag& tag,
                               uint64_t offset, uint64_t length);

  File* Lookup(FileId id);
  const File* Lookup(FileId id) const;

  iosched::IoScheduler& scheduler_;
  ssd::SsdDevice& device_;
  uint32_t extent_bytes_;
  uint64_t num_extents_;

  std::map<std::string, FileId, std::less<>> names_;
  std::map<FileId, std::unique_ptr<File>> files_;
  std::vector<uint32_t> free_extents_;
  FileId next_id_ = 1;
};

}  // namespace libra::fs

#endif  // LIBRA_SRC_FS_SIM_FS_H_
