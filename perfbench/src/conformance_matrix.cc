// conformance-matrix: the differential single-fault matrix over consecutive
// campaign seeds, streamed through VerdictTableSink.
//
// Per campaign seed: all 11 fault kinds (control first) x every
// local-testbed profile, 2 fetches per cell, plus kSchedules generated
// FaultSchedules x every profile. Seeds run in chunks of kSeedsPerChunk, one
// campaign per chunk. This is the only workload where truncated, corrupt or
// garbage DNS wire reaches the decoder, and every cell also runs injector
// hooks, capture analysis and the six rules.
//
// The run does a fixed number of chunks (kChunksPerSecond x --seconds), not
// "until the time is up": chunks differ in content, so a faster build must
// not be measured on a different seed mix than a slower one.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/schedule.h"
#include "mirror.h"
#include "records.h"
#include "workloads.h"

namespace perf {

namespace lz = lazyeye;
using lz::conformance::ConformanceRecord;

namespace {

constexpr int kWorkers = 1;
constexpr std::uint64_t kSeedsPerChunk = 4;
constexpr std::uint32_t kSchedules = 8;
constexpr double kChunksPerSecond = 4.0;
/// Campaign seeds whose verdict tables the default-seed digest covers.
constexpr std::uint64_t kDigestSeeds = 16;
/// Stream id of the schedule cells (the one bench_conformance_matrix uses).
constexpr std::uint32_t kScheduleStream = 0xFA;

/// One campaign over several seeds' matrices; each seed's cells form one
/// verdict table, added to `digest` in order.
class SeedTableSink final : public lz::campaign::ResultSink<ConformanceRecord> {
 public:
  SeedTableSink(std::vector<std::size_t> cells_per_seed, Digest& digest)
      : cells_per_seed_{std::move(cells_per_seed)}, digest_{digest} {}

  void begin(std::size_t) override {
    seed_ = 0;
    in_seed_ = 0;
    table_.begin(cells_per_seed_[0]);
  }
  void cell(const lz::campaign::ScenarioSpec& spec, ConformanceRecord record) override {
    if (in_seed_ == cells_per_seed_[seed_]) {
      finish_table();
      table_.begin(cells_per_seed_[++seed_]);
      in_seed_ = 0;
    }
    ++in_seed_;
    table_.cell(spec, std::move(record));
  }
  void end() override { finish_table(); }

  int violations() const { return violations_; }

 private:
  void finish_table() {
    table_.end();
    digest_.add(table_.text());
    violations_ += table_.total_violations();
  }

  std::vector<std::size_t> cells_per_seed_;
  std::size_t seed_ = 0;
  std::size_t in_seed_ = 0;
  lz::conformance::VerdictTableSink table_;
  Digest& digest_;
  int violations_ = 0;
};

/// The cells, harnesses and registries of one chunk of campaign seeds.
struct Chunk {
  std::uint64_t first_seed = 0;
  std::vector<std::unique_ptr<lz::conformance::ConformanceHarness>> harnesses;
  std::vector<std::unique_ptr<lz::campaign::Registry<ConformanceRecord>>> registries;
  std::vector<std::size_t> cells_per_seed;
  lz::campaign::SpecStream specs{0, nullptr};

  Chunk(std::uint64_t first, std::uint64_t seeds,
        const std::vector<lz::clients::ClientProfile>& profiles)
      : first_seed{first} {
    std::vector<lz::campaign::ScenarioSpec> all;
    for (std::uint64_t k = 0; k < seeds; ++k) {
      auto harness = std::make_unique<lz::conformance::ConformanceHarness>(
          lz::conformance::ConformanceOptions{.seed = first + k});
      std::vector<lz::campaign::ScenarioSpec> cells =
          harness->differential_specs(profiles);
      for (std::uint32_t i = 0; i < kSchedules; ++i) {
        const auto schedule =
            lz::conformance::FaultSchedule::generate(first + k, kScheduleStream, i);
        for (const auto& profile : profiles) {
          cells.push_back(harness->schedule_spec(profile, schedule, 2));
        }
      }
      cells_per_seed.push_back(cells.size());
      for (auto& spec : cells) {
        spec.id = all.size();
        all.push_back(std::move(spec));
      }
      auto registry = std::make_unique<lz::campaign::Registry<ConformanceRecord>>();
      lz::conformance::register_conformance_executor(*registry, *harness, profiles);
      harnesses.push_back(std::move(harness));
      registries.push_back(std::move(registry));
    }
    specs = lz::campaign::SpecStream::of(std::move(all));
  }

  /// Dispatches a cell to the registry of its campaign seed.
  ConformanceRecord execute(const lz::campaign::ScenarioSpec& spec) const {
    std::uint64_t seed = 0;
    if (const auto* c = spec.get_if<lz::campaign::ConformanceCase>()) {
      seed = c->fault.seed;
    } else if (const auto* s = spec.get_if<lz::campaign::ScheduleCase>()) {
      seed = s->schedule.seed;
    }
    return registries.at(seed - first_seed)->execute(spec);
  }
};

}  // namespace

void run_conformance_matrix(const Options& options, Report& report) {
  report.workers = kWorkers;
  const std::vector<lz::clients::ClientProfile> profiles =
      lz::clients::local_testbed_profiles();
  const std::uint64_t chunks =
      std::max(kDigestSeeds / kSeedsPerChunk,
               static_cast<std::uint64_t>(std::round(kChunksPerSecond * options.seconds)));

  lz::campaign::RunnerOptions runner_options;
  runner_options.workers = kWorkers;
  const lz::campaign::CampaignRunner runner{runner_options};
  CampaignLedger ledger;
  ledger.workers = kWorkers;

  // Warm-up: a two-seed chunk from outside the measured seed range.
  {
    const std::uint64_t gen_start = now_ns();
    const Chunk warm{kWarmupSeed, 2, profiles};
    ledger.spec_gen_s = static_cast<double>(now_ns() - gen_start) / 1e9;
    Digest warm_tables;
    SeedTableSink sink{warm.cells_per_seed, warm_tables};
    std::vector<std::uint64_t> cell_ns;
    run_timed_campaign<ConformanceRecord>(
        runner, warm.specs,
        [&warm](const lz::campaign::ScenarioSpec& spec) { return warm.execute(spec); },
        sink, cell_ns);
  }
  report.end_setup();
  if (options.setup_only) return;

  ChunkTimes times;
  Digest tables;
  std::size_t thrown = 0;
  std::string first_error;
  std::string first_digest;
  int violations = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    times.begin_chunk();
    const std::uint64_t start = now_ns();
    const Chunk chunk{campaign_seed(options.seed, c * kSeedsPerChunk),
                      kSeedsPerChunk, profiles};
    const double gen_ns = static_cast<double>(now_ns() - start);
    SeedTableSink sink{chunk.cells_per_seed, tables};
    TimedSink<ConformanceRecord> timed_sink{sink};
    lz::campaign::ResultSink<ConformanceRecord>& target =
        options.traced
            ? static_cast<lz::campaign::ResultSink<ConformanceRecord>&>(timed_sink)
            : sink;
    std::vector<std::uint64_t> cell_ns;
    const PassTiming timing = run_timed_campaign<ConformanceRecord>(
        runner, chunk.specs,
        [&chunk](const lz::campaign::ScenarioSpec& spec) { return chunk.execute(spec); },
        target, cell_ns);
    for (const std::uint64_t ns : cell_ns) times.add_cells(static_cast<double>(ns));
    // Spec generation is part of what a user of the matrix waits for.
    times.end_chunk(static_cast<double>(cell_ns.size()),
                    static_cast<double>(timing.wall_ns) + gen_ns);
    if (timing.thrown > 0 && first_error.empty()) first_error = timing.first_error;
    thrown += timing.thrown;
    if ((c + 1) * kSeedsPerChunk == kDigestSeeds) first_digest = tables.hex();
    violations += sink.violations();
    ledger.add_pass(chunk.specs, cell_ns, timing);
    ledger.sink_ns += static_cast<double>(timed_sink.ns());
    ledger.sink_cells += static_cast<double>(timed_sink.cells());
  }
  report.metric("process.peak_rss_mb", peak_rss_mb());
  report.attempted = times.cells();
  times.report(report);
  report.info("campaign_seeds", static_cast<double>(chunks * kSeedsPerChunk));
  report.info("violations", violations);
  report.info("digest", first_digest);

  report.check("executor_errors", thrown == 0,
               thrown == 0 ? "none" : std::to_string(thrown) + " threw: " + first_error);
  report.failed += thrown;
  if (options.seed == kDefaultSeed) {
    const bool ok = first_digest == expected_digest(options.workload);
    report.check("expected_digest", ok,
                 first_digest + " vs expected " + expected_digest(options.workload));
    report.failed += ok ? 0 : 1;
  }

  // Mirror cells: the first campaign seed's fault cells (every kind, every
  // profile) and its first two schedules.
  const Chunk sample{campaign_seed(options.seed, 0), 1, profiles};
  const lz::conformance::ConformanceOptions sample_options{
      .seed = campaign_seed(options.seed, 0)};
  Tracer tracer;
  LayerLedger layers;
  std::size_t mirrored = 0;
  std::size_t mismatched = 0;
  const std::size_t fault_cells =
      lz::conformance::all_fault_kinds().size() * profiles.size();
  const std::size_t sample_cells = fault_cells + 2 * profiles.size();
  on_fresh_thread([&] {
    for (std::size_t i = 0; i < sample_cells; ++i) {
      const lz::campaign::ScenarioSpec spec = sample.specs.at(i);
      const lz::clients::ClientProfile& profile = lz::campaign::find_registered(
          profiles, spec.client,
          [](const lz::clients::ClientProfile& p) { return p.display_name(); },
          "mirror");
      const std::string expected = text_of(sample.execute(spec));
      const std::string mirror = text_of(mirror_conformance_cell(
          profile, sample_options, spec, static_cast<std::uint32_t>(i), tracer, layers));
      ++mirrored;
      mismatched += expected == mirror ? 0 : 1;
    }
  });
  report.check("mirror_cells_equal_executor", mismatched == 0,
               std::to_string(mismatched) + " of " + std::to_string(mirrored) +
                   " mirror cells differ from the executor's record");
  report.failed += mismatched;

  if (options.traced) {
    layers.emit(report);
    ledger.emit(report, times.cells_per_s());
    if (!options.trace_out.empty()) tracer.write(options.trace_out);
  }
}

}  // namespace perf
