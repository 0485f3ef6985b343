#include "sim/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"

namespace aqm::sim {

unsigned ParallelRunner::resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

void ParallelRunner::run(std::size_t n,
                         const std::function<void(std::size_t)>& task) const {
  if (n == 0) return;
  if (jobs_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }

  std::atomic<std::size_t> ticket{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  // Once any task fails, remaining workers stop pulling tickets: results
  // would be discarded by the rethrow anyway, so finish fast.
  std::atomic<bool> abort{false};

  auto worker = [&](std::size_t w) {
    // Tag this worker's log lines so interleaved shard output stays
    // attributable when trials log concurrently.
    std::string tag = "w";
    tag += std::to_string(w);
    Log::set_thread_tag(std::move(tag));
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t i = ticket.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const std::size_t workers = std::min<std::size_t>(jobs_, n);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace aqm::sim
