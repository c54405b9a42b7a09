// WorkerPool: persistent, lazily-started campaign worker threads.
//
// Every campaign used to spawn fresh
// std::threads and join them at the end — cheap for one big matrix, but a
// real tax on workloads that run many campaigns back to back (mixed
// testbed + webtool + resolverlab batches, bench sweeps at several worker
// counts, repeated CI grids). A WorkerPool keeps its threads parked on a
// condition variable between campaigns, so the second and every later
// campaign pays a wake-up instead of thread creation.
//
// Threads are started lazily: the pool spawns only when a campaign actually
// asks for helpers, and only as many as the widest campaign so far needed.
// Every CampaignRunner borrows from the one process-wide pool
// (WorkerPool::shared()), so testbed, webtool, and resolverlab campaigns all
// amortise the same threads. Private pools exist for the pool's own tests.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace lazyeye::campaign {

class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The process-wide pool every CampaignRunner uses. Lives (parked) until
  /// process exit.
  static WorkerPool& shared();

  /// Runs `body` concurrently on `helpers` pool threads plus the calling
  /// thread, and returns when every participant finished. The pool grows on
  /// demand to `helpers` threads and keeps them for later campaigns.
  /// `body` must not throw (campaign workers trap their own exceptions).
  /// Campaigns are serialised: a second concurrent campaign on the same
  /// pool waits for the first to finish — determinism never depends on it.
  /// Re-entrant: a job launched from inside any pool's job body (an
  /// executor/sink/hook that itself runs a campaign) executes on transient
  /// threads instead of deadlocking on the serialisation lock.
  void run_job(int helpers, const std::function<void()>& body);

  /// Threads this pool has ever started (they persist until destruction).
  int threads_started() const;

  /// Campaigns served so far (observability for benches / examples).
  std::uint64_t jobs_run() const;

 private:
  void worker_main();
  void ensure_threads(int wanted) REQUIRES(state_mutex_);

  mutable util::Mutex state_mutex_;
  util::CondVar work_cv_;  // parked workers wait here
  util::CondVar done_cv_;  // the campaign thread waits here
  std::vector<std::thread> threads_ GUARDED_BY(state_mutex_);
  const std::function<void()>* body_ GUARDED_BY(state_mutex_) = nullptr;
  /// Bumped per campaign; workers track it.
  std::uint64_t job_seq_ GUARDED_BY(state_mutex_) = 0;
  /// Participants this campaign still wants.
  int open_slots_ GUARDED_BY(state_mutex_) = 0;
  /// Participants currently inside body.
  int active_ GUARDED_BY(state_mutex_) = 0;
  std::uint64_t jobs_run_ GUARDED_BY(state_mutex_) = 0;
  bool stopping_ GUARDED_BY(state_mutex_) = false;

  /// Serialises whole campaigns on this pool; always acquired before
  /// state_mutex_ when both are taken.
  util::Mutex job_mutex_ ACQUIRED_BEFORE(state_mutex_);
};

}  // namespace lazyeye::campaign
