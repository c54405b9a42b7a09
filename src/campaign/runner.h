// CampaignRunner: shards ScenarioSpec cells across a persistent worker pool.
//
// Each worker claims cells off a shared atomic cursor and executes them in a
// fully isolated simnet world (the executor builds the world from the spec's
// seed). Completed cells are re-ordered into spec order and streamed to a
// ResultSink — the sink sees cell i only after cells 0..i-1, regardless of
// which worker finished first, so aggregated output is byte-identical for
// 1 worker and N workers. Worker count is purely a wall-clock knob.
//
// Hot-path properties:
//   - Helper threads come from the process-wide WorkerPool::shared(), parked
//     between campaigns instead of re-spawned.
//   - Workers claim cells off one atomic cursor as fast as they finish them.
//     Nothing paces the cursor against delivery, so a slow head cell parks
//     every cell the other workers finish meanwhile — up to the rest of the
//     matrix. At one worker (the inline path) nothing is ever parked.
//   - Every cell's spec comes from SpecStream::at() when it is claimed, so
//     unclaimed cells of a lazy matrix never occupy memory; the spec then
//     rides with its outcome through the reorder buffer to the sink.
//
// Failure policy: the first executor throw fails the campaign. No cell is
// retried or set aside in process — a cell's world derives from its spec
// alone, so a retried cell fails the same way again, and nothing here reads
// a wall clock. A cell that crashes or wedges its process is the shard
// layer's problem (shard.h): the shard process is killed and resumed from
// its journal.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <utility>

#include "campaign/reorder.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"
#include "util/mutex.h"

namespace lazyeye::campaign {

struct RunnerOptions {
  /// Worker threads; 0 means "one per hardware thread". Clamped to the
  /// matrix size; an effective count of 1 runs inline on the calling thread,
  /// any other count borrows its helpers from WorkerPool::shared().
  int workers = 0;
};

class CampaignRunner {
 public:
  /// Counters from the most recent completed run on this runner. Runs
  /// publish here under a lock, so concurrent runs on one (const) runner
  /// stay well-defined — the last run to finish wins.
  struct RunStats {
    /// Max completed cells parked in the reorder buffer awaiting an earlier
    /// cell.
    std::size_t reorder_high_water = 0;
  };

  explicit CampaignRunner(RunnerOptions options = {});

  /// The worker count a matrix of `jobs` cells would actually use.
  int resolved_workers(std::size_t jobs) const;

  RunStats last_run_stats() const EXCLUDES(stats_mutex_) {
    util::MutexLock lock{stats_mutex_};
    return stats_;
  }

  /// Executes `executor` for every cell of the (possibly lazy) stream and
  /// delivers each outcome to `sink` in spec order (see sink.h for the
  /// delivery contract). The executor must be self-contained per call (it
  /// may run concurrently from several threads on *different* specs).
  /// Out-of-order completions are parked in a pending map and released as
  /// soon as every earlier cell has been delivered. If any executor or sink
  /// call throws, the first exception is rethrown on the calling thread
  /// after the pool drains (sink.end() is not called).
  template <typename R>
  void run_streaming(const SpecStream& specs,
                     const std::function<R(const ScenarioSpec&)>& executor,
                     ResultSink<R>& sink) const {
    sink.begin(specs.size());
    run_range<R>(specs, 0, specs.size(), executor, sink);
    sink.end();
  }

  /// Journal/resume building block: executes cells [first, last) of the
  /// stream, delivering them to `sink` in spec order starting at `first`.
  /// Does NOT call sink.begin()/end() — the caller owns the sink lifecycle
  /// (the journal layer replays already-finished cells between begin() and
  /// this call; see journal_sink.h).
  template <typename R>
  void run_range(const SpecStream& specs, std::size_t first, std::size_t last,
                 const std::function<R(const ScenarioSpec&)>& executor,
                 ResultSink<R>& sink) const {
    if (first > last || last > specs.size()) {
      throw std::invalid_argument("run_range: cell range outside the stream");
    }
    ReorderBuffer<R> reorder{first};

    run_indexed(last - first, [&](std::size_t k) {
      // run_indexed counts from 0; the reorder buffer and sink see
      // absolute indices.
      const std::size_t i = first + k;
      ScenarioSpec spec = specs.at(i);
      R outcome = executor(spec);
      reorder.complete(i, std::move(spec), std::move(outcome), sink);
    });
    util::MutexLock lock{stats_mutex_};
    stats_.reorder_high_water = reorder.high_water();
  }

 private:
  /// Non-template core: runs job(0..count-1) across the shared pool.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& job) const;

  RunnerOptions options_;
  mutable util::Mutex stats_mutex_;
  /// See last_run_stats(): last completed run wins.
  mutable RunStats stats_ GUARDED_BY(stats_mutex_);
};

}  // namespace lazyeye::campaign
