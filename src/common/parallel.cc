#include "src/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace libra {

void ParallelFor(int jobs, size_t count,
                 const std::function<void(size_t)>& fn) {
  if (jobs <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!failed.exchange(true)) {
          first_error = std::current_exception();
        }
      }
    }
  };
  const size_t nthreads = std::min<size_t>(static_cast<size_t>(jobs), count);
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (size_t t = 0; t < nthreads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace libra
