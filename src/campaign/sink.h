// ResultSink: streaming per-cell delivery of campaign outcomes.
//
// The runner pushes each cell to a sink *in spec order* as soon as it (and
// all cells before it) completed. Aggregations that fold cells into running
// counters (the web tool's per-bucket tallies, the resolver lab's Table 3
// rows) never hold the full record vector; campaigns that do want the
// materialised matrix use CollectingSink.
//
// Delivery contract (enforced by CampaignRunner::run_streaming):
//   - begin(n) once, on the calling thread, before any cell.
//   - cell(spec, outcome) exactly once per cell, in spec order, serialised
//     (never concurrently) — but possibly from different worker threads.
//   - end() once after the last cell; skipped when an executor throws.
//
// The serialisation is concrete, not just documented: every cell() call is
// made while holding the ReorderBuffer's mutex (reorder.h), so sink state
// (CollectingSink's vectors, a verdict table's rows) needs no locking of
// its own — the reorder mutex is the sink's capability.
//
// A sink has no save/restore hook: a resumed journaled campaign
// (journal_sink.h) replays every journaled cell through cell(), so a sink
// rebuilds its state, running totals included, from the cell stream alone.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "campaign/scenario.h"

namespace lazyeye::campaign {

template <typename R>
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once with the matrix size before the first cell.
  virtual void begin(std::size_t cells_total) { (void)cells_total; }

  /// Called once per cell, in spec order, calls serialised.
  virtual void cell(const ScenarioSpec& spec, R outcome) = 0;

  /// Called once after the last cell (not called when the campaign throws).
  virtual void end() {}
};

/// Materialises the matrix: specs plus their outcomes, index-aligned.
template <typename R>
class CollectingSink final : public ResultSink<R> {
 public:
  struct Result {
    std::vector<ScenarioSpec> specs;
    std::vector<R> outcomes;  // outcomes[i] belongs to specs[i]
  };

  void begin(std::size_t cells_total) override {
    result_.specs.reserve(cells_total);
    result_.outcomes.reserve(cells_total);
  }

  void cell(const ScenarioSpec& spec, R outcome) override {
    result_.specs.push_back(spec);
    result_.outcomes.push_back(std::move(outcome));
  }

  const Result& result() const& { return result_; }
  Result take() && { return std::move(result_); }

 private:
  Result result_;
};

/// Adapts a callable into a sink for on-the-fly aggregation.
template <typename R>
class CallbackSink final : public ResultSink<R> {
 public:
  using CellFn = std::function<void(const ScenarioSpec&, R)>;

  explicit CallbackSink(CellFn on_cell) : on_cell_{std::move(on_cell)} {}

  void cell(const ScenarioSpec& spec, R outcome) override {
    on_cell_(spec, std::move(outcome));
  }

 private:
  CellFn on_cell_;
};

}  // namespace lazyeye::campaign
