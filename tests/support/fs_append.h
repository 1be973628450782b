// Appends given bytes to a SimFs file in tests: a copy of `data` written in
// place through SimFs::Append's encoder form. `data` must outlive the
// returned task (a temporary in the awaiting full-expression does).

#ifndef LIBRA_TESTS_SUPPORT_FS_APPEND_H_
#define LIBRA_TESTS_SUPPORT_FS_APPEND_H_

#include <cstring>
#include <string_view>

#include "src/fs/sim_fs.h"

namespace libra::fs {

inline sim::Task<StatusOr<StoredBytes>> AppendBytes(SimFs& fs, FileId file,
                                                    iosched::IoTag tag,
                                                    std::string_view data) {
  const auto copy = [data](char* dst) {
    std::memcpy(dst, data.data(), data.size());
  };
  co_return co_await fs.Append(file, tag, data.size(), copy);
}

}  // namespace libra::fs

#endif  // LIBRA_TESTS_SUPPORT_FS_APPEND_H_
