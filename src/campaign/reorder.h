// ReorderBuffer: spec-order delivery of out-of-order cell completions.
//
// Workers finish cells in arbitrary order; the sink contract (sink.h)
// promises delivery in spec order, serialised. This class owns that
// invariant: complete() parks the finished cell, then drains every
// consecutively-ready cell to the sink while holding the buffer mutex — so
// the mutex doubles as the sink's serialisation capability. Sinks
// (CollectingSink, JournalingSink, ...) stay lock-free because every cell()
// call happens under this one lock.
//
// Extracted from CampaignRunner::run_streaming so the pending map, emit
// cursor, and failure latch are GUARDED_BY a named mutex that clang
// -Wthread-safety can check, instead of loose locals captured by lambdas
// (which the analysis cannot follow).
#pragma once

#include <cstddef>
#include <map>
#include <utility>

#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "util/mutex.h"

namespace lazyeye::campaign {

/// Reorders completed cells into spec order and streams them to a sink.
/// Thread-safe: complete() may be called concurrently from any worker.
template <typename R>
class ReorderBuffer {
 public:
  /// `first` is the index delivery starts at — 0 for a fresh campaign, the
  /// journal's resume_index() for a resumed one (earlier cells were
  /// delivered by a previous process and must not be re-emitted).
  explicit ReorderBuffer(std::size_t first = 0) : next_to_emit_{first} {}

  /// Records cell `index` (with the spec it ran) as complete and delivers
  /// it — and every later cell already parked behind it — to `sink` in spec
  /// order. If the sink throws, delivery latches off (the campaign is
  /// failing; no worker may deliver a moved-from cell) and the exception
  /// propagates to the caller.
  void complete(std::size_t index, ScenarioSpec spec, R outcome,
                ResultSink<R>& sink) EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    pending_.emplace(index, PendingCell{std::move(spec), std::move(outcome)});
    while (!delivery_failed_) {
      const auto ready = pending_.find(next_to_emit_);
      if (ready == pending_.end()) break;
      PendingCell cell = std::move(ready->second);
      pending_.erase(ready);
      ++next_to_emit_;
      try {
        sink.cell(cell.spec, std::move(cell.outcome));
      } catch (...) {
        delivery_failed_ = true;
        throw;
      }
    }
    if (pending_.size() > high_water_) high_water_ = pending_.size();
  }

  /// Max completed cells ever parked awaiting an earlier one. Nothing bounds
  /// it: a slow head cell parks every cell the other workers finish
  /// meanwhile. Call after the campaign drained (it reads under the lock,
  /// but the interesting value is the final one).
  std::size_t high_water() const EXCLUDES(mutex_) {
    util::MutexLock lock{mutex_};
    return high_water_;
  }

 private:
  struct PendingCell {
    ScenarioSpec spec;
    R outcome;
  };

  mutable util::Mutex mutex_;
  /// Finished cells awaiting an earlier cell's delivery, keyed by index.
  std::map<std::size_t, PendingCell> pending_ GUARDED_BY(mutex_);
  /// Next index the sink has not seen yet (cell_begin + cells delivered).
  std::size_t next_to_emit_ GUARDED_BY(mutex_);
  /// Latched on the first sink throw; stops all further delivery.
  bool delivery_failed_ GUARDED_BY(mutex_) = false;
  std::size_t high_water_ GUARDED_BY(mutex_) = 0;
};

}  // namespace lazyeye::campaign
