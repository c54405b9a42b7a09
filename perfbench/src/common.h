// Shared pieces of the benchmark program: wall clock, sample statistics,
// digests, the per-run report, and the timing wrappers placed around the
// campaign layer's public entry points (executor calls and sink calls).
//
// The benchmark only uses the library's public headers: it times calls into
// each module from the outside.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"

namespace perf {

/// steady_clock nanoseconds (CLOCK_MONOTONIC on Linux, the clock the Python
/// wrapper reads, so set-up time can span the process start).
std::uint64_t now_ns();

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

/// Linear-interpolated quantile of `values` (sorted in place); q in [0, 1].
double quantile(std::vector<double>& values, double q);

/// FNV-1a 64-bit running digest; hex() renders it as 16 hex digits.
class Digest {
 public:
  void add(std::string_view bytes);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// How a run is driven; parsed from the command line (see main.cc).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool traced = false;
  bool setup_only = false;
  std::string work_dir;   // journals and corpora (hunt workload)
  std::string trace_out;  // span file written at the end of a traced run
};

/// Parses argv; returns false (and fills `error`) on any malformed or
/// missing argument.
bool parse_options(int argc, const char* const* argv, Options& out,
                   std::string& error);

/// Everything one run reports back to the wrapper as a JSON object.
class Report {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  void info(const std::string& name, const std::string& value);
  void info(const std::string& name, double value);
  /// Records an output check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);

  /// Marks the end of set-up: stamps setup_end_ns, then times the reference
  /// kernel (speed.h) for setup_scale, so set-up time does not include it.
  void end_setup();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t setup_end_ns = 0;
  double setup_scale = 1.0;  // multiplies set-up time to reference speed
  int workers = 0;

  bool checks_ok() const;
  std::string json() const;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> info_;  // rendered JSON values
  std::vector<std::string> checks_;  // pre-rendered JSON objects
  bool all_ok_ = true;
};

/// Wall time of one campaign run and of each executor call in it.
struct PassTiming {
  std::uint64_t wall_ns = 0;
  std::uint64_t exec_ns = 0;  // sum over cells
  std::size_t thrown = 0;     // executor calls that threw
  std::string first_error;
  std::size_t reorder_high_water = 0;
};

/// Runs `specs` (ids must be dense 0..n-1) through `runner` with every
/// executor call wrapped in a wall-clock timer. `cell_ns[id]` receives each
/// cell's duration. A throwing executor is counted and its cell delivered as
/// a default outcome, so one bad cell shows in the failure count instead of
/// aborting the run.
template <typename R>
PassTiming run_timed_campaign(
    const lazyeye::campaign::CampaignRunner& runner,
    const lazyeye::campaign::SpecStream& specs,
    const std::function<R(const lazyeye::campaign::ScenarioSpec&)>& execute,
    lazyeye::campaign::ResultSink<R>& sink, std::vector<std::uint64_t>& cell_ns) {
  cell_ns.assign(specs.size(), 0);
  std::vector<std::string> errors(specs.size());
  const std::function<R(const lazyeye::campaign::ScenarioSpec&)> wrapped =
      [&](const lazyeye::campaign::ScenarioSpec& spec) {
        const std::uint64_t start = now_ns();
        try {
          R outcome = execute(spec);
          cell_ns[spec.id] = now_ns() - start;
          return outcome;
        } catch (const std::exception& e) {
          cell_ns[spec.id] = now_ns() - start;
          errors[spec.id] = e.what()[0] != '\0' ? e.what() : "exception";
          return R{};
        }
      };
  PassTiming timing;
  const std::uint64_t start = now_ns();
  runner.run_streaming<R>(specs, wrapped, sink);
  timing.wall_ns = now_ns() - start;
  timing.reorder_high_water = runner.last_run_stats().reorder_high_water;
  for (std::size_t i = 0; i < cell_ns.size(); ++i) {
    timing.exec_ns += cell_ns[i];
    if (!errors[i].empty()) {
      if (timing.thrown == 0) timing.first_error = errors[i];
      ++timing.thrown;
    }
  }
  return timing;
}

/// Forwards to another sink and times each cell() call (the traced run's
/// campaign.sink_us_per_cell).
template <typename R>
class TimedSink final : public lazyeye::campaign::ResultSink<R> {
 public:
  explicit TimedSink(lazyeye::campaign::ResultSink<R>& inner) : inner_{inner} {}

  void begin(std::size_t cells_total) override { inner_.begin(cells_total); }
  void cell(const lazyeye::campaign::ScenarioSpec& spec, R outcome) override {
    const std::uint64_t start = now_ns();
    inner_.cell(spec, std::move(outcome));
    ns_ += now_ns() - start;
    ++cells_;
  }
  void end() override { inner_.end(); }

  std::uint64_t ns() const { return ns_; }
  std::uint64_t cells() const { return cells_; }

 private:
  lazyeye::campaign::ResultSink<R>& inner_;
  std::uint64_t ns_ = 0;
  std::uint64_t cells_ = 0;
};

/// Campaign-layer totals of a traced run: executor time per case kind,
/// dispatch overhead, sink time, reorder high-water.
struct CampaignLedger {
  int workers = 1;
  double wall_ns = 0;
  double exec_ns = 0;
  double cells = 0;
  double sink_ns = 0;
  double sink_cells = 0;
  double reorder_high_water = 0;
  double spec_gen_s = 0;
  std::vector<double> kind_ns[lazyeye::campaign::kCaseKindCount];

  void add_pass(const lazyeye::campaign::SpecStream& specs,
                const std::vector<std::uint64_t>& cell_ns,
                const PassTiming& timing);
  /// campaign.* and exec.* metrics; `cells_per_s` is the traced run's own
  /// throughput in the workload's unit (trace.cells_per_s).
  void emit(Report& report, double cells_per_s);
};

/// Runs `body` on a new thread and waits for it, rethrowing its exception.
/// Mirror cells run this way: the thread-local world and message pools they
/// draw from then hold only what the mirror sample itself put there, so
/// their allocation counts repeat exactly from run to run.
void on_fresh_thread(const std::function<void()>& body);

/// Concatenates lazy streams into one, re-numbering ids densely.
lazyeye::campaign::SpecStream concat(
    std::vector<lazyeye::campaign::SpecStream> parts);

/// The timed part of a run, chunk by chunk (passes, seed chunks or hunts).
/// Each chunk opens with the reference kernel (speed.h), whose time sets the
/// scale of that chunk's cell times and rate.
class ChunkTimes {
 public:
  /// Times the reference kernel; call right before each timed chunk.
  void begin_chunk();
  /// `count` cells of the current chunk that took `ns` wall time each.
  void add_cells(double ns, std::size_t count = 1);
  /// Closes the current chunk: `cells` completed in `wall_ns`.
  void end_chunk(double cells, double wall_ns);

  std::size_t cells() const { return cell_ms_.size(); }
  /// Median over chunks of each chunk's cells per second, at reference speed.
  double cells_per_s() const;
  /// The end-to-end metrics shared by every workload, at reference speed:
  /// cells_per_s (above) — robust to a burst of machine noise or one chunk
  /// of unusually expensive cells — cell_ms_p50 over every cell, and
  /// cell_ms_p99 as the median over chunks of each chunk's 99th percentile,
  /// so the few chunks whose malformed-DNS cells dominate the tail (which
  /// ones depends on the seed) cannot move it. The unscaled figures go to
  /// the report's info.
  void report(Report& report) const;

 private:
  double scale_ = 1.0;
  std::vector<double> scales_;
  std::vector<double> cell_ms_, raw_cell_ms_;
  std::vector<double> rates_, raw_rates_;
  double raw_wall_ns_ = 0;
  std::size_t chunk_begin_ = 0;  // first cell of the current chunk
  std::vector<double> chunk_p99_, raw_chunk_p99_;
};

}  // namespace perf
