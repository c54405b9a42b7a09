#include "campaign/runner.h"

#include <atomic>
#include <exception>
#include <thread>

#include "campaign/worker_pool.h"
#include "util/mutex.h"

namespace lazyeye::campaign {

CampaignRunner::CampaignRunner(RunnerOptions options)
    : options_{std::move(options)} {}

int CampaignRunner::resolved_workers(std::size_t jobs) const {
  int workers = options_.workers;
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (static_cast<std::size_t>(workers) > jobs) {
    workers = jobs == 0 ? 1 : static_cast<int>(jobs);
  }
  return workers;
}

void CampaignRunner::run_indexed(
    std::size_t count, const std::function<void(std::size_t)>& job) const {
  if (count == 0) return;
  const int workers = resolved_workers(count);

  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  util::Mutex error_mutex;

  auto worker_body = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        job(i);
      } catch (...) {
        {
          util::MutexLock lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  WorkerPool::shared().run_job(workers - 1, worker_body);

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace lazyeye::campaign
