#include "campaign/worker_pool.h"

#include <algorithm>

namespace lazyeye::campaign {

namespace {

// True while the current thread runs a job body. run_job uses it to detect
// re-entry — a campaign launched from inside another campaign's
// executor/sink/hook — and falls back to transient threads instead of
// queueing on a job_mutex_ the outer campaign may hold. Pool threads only
// ever run job bodies, so they set it once for their whole life.
thread_local bool t_inside_job = false;

}  // namespace

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  // Swap the thread table out under the lock (it is GUARDED_BY state_mutex_
  // and join must not hold it — workers re-acquire it on their way out).
  std::vector<std::thread> threads;
  {
    util::MutexLock lock{state_mutex_};
    stopping_ = true;
    threads.swap(threads_);
  }
  work_cv_.notify_all();
  for (std::thread& t : threads) t.join();
}

int WorkerPool::threads_started() const {
  util::MutexLock lock{state_mutex_};
  return static_cast<int>(threads_.size());
}

std::uint64_t WorkerPool::jobs_run() const {
  util::MutexLock lock{state_mutex_};
  return jobs_run_;
}

void WorkerPool::ensure_threads(int wanted) {
  while (static_cast<int>(threads_.size()) < wanted) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

void WorkerPool::run_job(int helpers, const std::function<void()>& body) {
  helpers = std::max(helpers, 0);
  if (t_inside_job) {
    // Nested campaign: transient threads, paid only on recursion.
    {
      util::MutexLock lock{state_mutex_};
      ++jobs_run_;
    }
    std::vector<std::thread> transient;
    transient.reserve(static_cast<std::size_t>(helpers));
    for (int i = 0; i < helpers; ++i) {
      transient.emplace_back([&body] {
        t_inside_job = true;  // deeper nesting stays transient too
        body();
      });
    }
    body();
    for (std::thread& t : transient) t.join();
    return;
  }
  // One campaign at a time per pool: a concurrent second campaign parks
  // here instead of interleaving with the first one's claim cursor.
  util::MutexLock job_lock{job_mutex_};
  {
    util::MutexLock lock{state_mutex_};
    ensure_threads(helpers);
    body_ = &body;
    open_slots_ = helpers;
    active_ = helpers;
    ++job_seq_;
    ++jobs_run_;
  }
  work_cv_.notify_all();
  t_inside_job = true;
  body();  // the calling thread is participant 0
  t_inside_job = false;
  util::MutexLock lock{state_mutex_};
  while (active_ != 0) done_cv_.wait(state_mutex_);
  body_ = nullptr;
}

void WorkerPool::worker_main() {
  t_inside_job = true;
  std::uint64_t seen_job = 0;
  state_mutex_.lock();
  for (;;) {
    while (!stopping_ && (job_seq_ == seen_job || open_slots_ <= 0)) {
      work_cv_.wait(state_mutex_);
    }
    if (stopping_) {
      state_mutex_.unlock();
      return;
    }
    // Claim one participant slot of the current campaign. Which threads end
    // up participating is irrelevant: results only depend on cell seeds.
    seen_job = job_seq_;
    --open_slots_;
    const std::function<void()>* body = body_;
    state_mutex_.unlock();
    (*body)();
    state_mutex_.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

}  // namespace lazyeye::campaign
