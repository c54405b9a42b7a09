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
//   - Threads come from a persistent WorkerPool (the process-wide shared
//     pool by default), parked between campaigns instead of re-spawned.
//   - The claim cursor honours `max_reorder_ahead` backpressure: workers
//     stop claiming cells that would run further ahead of the next
//     undelivered cell than the cap allows, so a pathologically slow head
//     cell bounds the pending reorder buffer instead of parking the whole
//     matrix behind it.
//   - Matrices can be lazy (SpecStream): specs are generated per claimed
//     cell, so matrix size never dictates memory high-water.
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
#include <vector>

#include "campaign/reorder.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"
#include "campaign/worker_pool.h"
#include "util/mutex.h"

namespace lazyeye::campaign {

struct RunnerOptions {
  /// Worker threads; 0 means "one per hardware thread". The pool is clamped
  /// to the matrix size; an effective count of 1 runs inline on the calling
  /// thread (no pool).
  int workers = 0;

  /// Backpressure cap on the streaming reorder buffer: a worker only claims
  /// cell i once i <= (next undelivered cell) + max_reorder_ahead, so at
  /// most max_reorder_ahead completed cells are ever parked awaiting an
  /// earlier one. 0 = unbounded (claim as fast as workers drain the
  /// cursor). Effective parallelism is min(workers, max_reorder_ahead + 1);
  /// results are byte-identical for every setting.
  std::size_t max_reorder_ahead = 0;

  /// Pool to borrow threads from; nullptr = WorkerPool::shared(). The pool
  /// must outlive every run made with these options. Campaigns on one pool
  /// are serialised: two threads launching campaigns on the shared pool
  /// take turns (each still parallelises internally). Point workloads that
  /// must overlap — or whose executors block on anything outside their own
  /// cell — at private pools.
  WorkerPool* pool = nullptr;
};

class CampaignRunner {
 public:
  /// Counters from the most recent completed run on this runner. Runs
  /// accumulate into locals and publish here under a lock, so concurrent
  /// runs on one (const) runner stay well-defined — the last run to finish
  /// wins. Campaigns already parallelise internally; prefer sharing the
  /// WorkerPool over sharing a runner.
  struct RunStats {
    /// Max completed cells parked in the reorder buffer awaiting an earlier
    /// cell. Bounded by max_reorder_ahead when that is non-zero.
    std::size_t reorder_high_water = 0;
    std::size_t cells = 0;
    int workers_used = 0;
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
  /// soon as every earlier cell has been delivered; with
  /// options.max_reorder_ahead set, the claim cursor stalls rather than let
  /// the parked set outgrow the cap, so a slow head cell can no longer park
  /// the whole matrix. If any executor or sink call throws, the first
  /// exception is rethrown on the calling thread after the pool drains
  /// (sink.end() is not called).
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
  /// this call; see journal_sink.h). Stats are published to
  /// last_run_stats() and returned.
  template <typename R>
  RunStats run_range(const SpecStream& specs, std::size_t first,
                     std::size_t last,
                     const std::function<R(const ScenarioSpec&)>& executor,
                     ResultSink<R>& sink) const {
    if (first > last || last > specs.size()) {
      throw std::invalid_argument("run_range: cell range outside the stream");
    }
    // Streams backed by a materialised matrix (view()/of()) deliver specs
    // straight out of that vector — no per-cell ScenarioSpec copy. Only
    // truly lazy streams generate and carry a spec per cell.
    const std::vector<ScenarioSpec>* backed = specs.backing();
    ReorderBuffer<R> reorder{backed, first};
    ClaimGate gate{options_.max_reorder_ahead};
    RunStats run_stats;  // published to stats_ only when the run completes
    run_stats.cells = last - first;

    run_stats.workers_used = run_indexed(
        last - first,
        [&](std::size_t k) {
          // The claim gate and run_indexed work in 0-based claim
          // coordinates; the reorder buffer and sink see absolute indices.
          const std::size_t i = first + k;
          ScenarioSpec spec;  // generated per cell only for lazy streams
          if (backed == nullptr) spec = specs.at(i);
          const ScenarioSpec& cell_spec =
              backed != nullptr ? (*backed)[i] : spec;

          R outcome = executor(cell_spec);
          // complete() drains every ready cell to the sink under the
          // reorder mutex and hands back the new emit cursor. advance() is
          // monotonic, so pacing the gate with a value read outside the
          // reorder lock is safe — a stale (smaller) cursor is ignored.
          gate.advance(reorder.complete(i, std::move(spec), std::move(outcome),
                                        sink) -
                       first);
        },
        &gate);
    run_stats.reorder_high_water = reorder.high_water();
    {
      util::MutexLock lock{stats_mutex_};
      stats_ = run_stats;
    }
    return run_stats;
  }

 private:
  /// Paces the claim cursor against the emit cursor. Workers claim cell
  /// indices in order, then wait here until their index enters the window
  /// [0, next_to_emit + max_ahead]; every emit advances the window. The
  /// head index is always admissible, so progress never stalls — and on a
  /// campaign failure the gate opens unconditionally so parked claimers
  /// drain out.
  class ClaimGate {
   public:
    explicit ClaimGate(std::size_t max_ahead) : max_ahead_{max_ahead} {}

    /// Blocks until index may run. Returns false when the campaign failed
    /// while waiting (the caller must not run the cell).
    bool wait_for_claim(std::size_t index) EXCLUDES(mutex_) {
      if (max_ahead_ == 0) return true;
      util::MutexLock lock{mutex_};
      // Saturating form of index <= window_base_ + max_ahead_ (a huge
      // cap like SIZE_MAX must mean "unbounded", not wrap to zero).
      while (!aborted_ && index > max_ahead_ &&
             index - max_ahead_ > window_base_) {
        cv_.wait(mutex_);
      }
      return !aborted_;
    }

    /// Monotonic: a next_to_emit at or below the current window base is a
    /// no-op, so callers may pass cursors read outside the emit lock.
    void advance(std::size_t next_to_emit) EXCLUDES(mutex_) {
      if (max_ahead_ == 0) return;
      {
        util::MutexLock lock{mutex_};
        if (next_to_emit <= window_base_) return;
        window_base_ = next_to_emit;
      }
      cv_.notify_all();
    }

    void abort() EXCLUDES(mutex_) {
      if (max_ahead_ == 0) return;
      {
        util::MutexLock lock{mutex_};
        aborted_ = true;
      }
      cv_.notify_all();
    }

   private:
    const std::size_t max_ahead_;  // 0 = unbounded, gate is a no-op
    util::Mutex mutex_;
    util::CondVar cv_;
    /// Next undelivered cell.
    std::size_t window_base_ GUARDED_BY(mutex_) = 0;
    bool aborted_ GUARDED_BY(mutex_) = false;
  };

  /// Non-template core: runs job(0..count-1) across the pool, pacing claims
  /// through `gate` (may be nullptr for ungated index runs). Returns the
  /// worker count the run actually used.
  int run_indexed(std::size_t count,
                  const std::function<void(std::size_t)>& job,
                  ClaimGate* gate) const;

  RunnerOptions options_;
  mutable util::Mutex stats_mutex_;
  /// See last_run_stats(): last completed run wins.
  mutable RunStats stats_ GUARDED_BY(stats_mutex_);
};

}  // namespace lazyeye::campaign
