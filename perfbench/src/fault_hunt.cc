// fault-hunt: journaled coverage-guided hunts (conformance::FaultHunt) at a
// fixed budget, each followed by an identical re-run against its completed
// journal — the crash-recovery path, which must reproduce the corpus byte
// for byte.
//
// The only workload that exercises the journal (CRC appends, fsync'd
// snapshots, load_journal replay), the schedule and corpus codecs, and the
// hunt's search state and delta-minimisation.
//
// A cell here is one conformance cell (world) the hunt evaluates: each
// candidate runs against every profile, and violating candidates again for
// every minimisation step. The hunt runs its cells inline on this thread
// (one worker), so the thread's ScenarioPool lease count is the cell count,
// and a candidate's cells each get the candidate's mean cell time (the gap
// between HuntOptions::after_cell calls over its cells). Candidate times
// themselves cluster by minimisation step count, which makes their median
// jump between clusters; per-cell time does not.
//
// Hunt cost depends heavily on the hunt seed (a few candidates trigger the
// expensive malformed-DNS decodes), so a run covers many short hunts over
// consecutive hunt seeds — a fixed number per --seconds, never "until the
// time is up", so both sides of a comparison hunt the same seeds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/journal.h"
#include "campaign/registry.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/schedule.h"
#include "conformance/search.h"
#include "mirror.h"
#include "records.h"
#include "simnet/scenario_pool.h"
#include "workloads.h"

namespace perf {

namespace lz = lazyeye;
namespace fs = std::filesystem;
using lz::conformance::ConformanceRecord;

namespace {

constexpr int kWorkers = 1;
constexpr int kBudget = 32;
constexpr double kHuntsPerSecond = 7.0;
/// Single-fault matrices run on the hunt thread during set-up.
constexpr std::uint64_t kWarmupMatrices = 4;
/// Hunts whose journal, codec and corpus get the traced per-layer probes.
constexpr std::size_t kProbedHunts = 8;

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

lz::conformance::HuntOptions hunt_options(std::uint64_t hunt_seed, int budget,
                                          const std::string& journal) {
  lz::conformance::HuntOptions o;
  o.seed = hunt_seed;
  o.budget = budget;
  o.workers = kWorkers;
  o.journal_path = journal;
  o.conformance.seed = hunt_seed;
  return o;
}

/// Journal-layer probes on one completed hunt journal.
struct JournalLedger {
  std::vector<double> load_ms;
  double bytes = 0, candidates = 0;
  double append_ns = 0, appends = 0;
  double snapshot_ns = 0, snapshots = 0;
  double codec_ns = 0, codec_entries = 0;
  std::vector<double> corpus_load_us;

  void probe(const std::string& journal, const std::string& corpus,
             const std::string& scratch, int snapshot_every) {
    std::uint64_t start = now_ns();
    const lz::campaign::JournalLoad load = lz::campaign::load_journal(journal);
    load_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    bytes += static_cast<double>(fs::file_size(journal));
    candidates += static_cast<double>(load.cells.size());

    // Replays the records into a scratch journal with the hunt's fsync
    // policy: cell appends, and the latest snapshot at the hunt's cadence.
    fs::remove(scratch);
    {
      auto writer = lz::campaign::JournalWriter::create(
          scratch, load.identity, load.cell_begin, load.cell_end);
      for (std::size_t i = 0; i < load.cells.size(); ++i) {
        start = now_ns();
        writer.append_cell(load.cells[i].index, load.cells[i].payload);
        append_ns += static_cast<double>(now_ns() - start);
        appends += 1;
        if ((i + 1) % static_cast<std::size_t>(snapshot_every) == 0) {
          start = now_ns();
          writer.append_snapshot(i + 1, load.snapshot_state);
          snapshot_ns += static_cast<double>(now_ns() - start);
          snapshots += 1;
        }
      }
      writer.append_complete(load.cells.size());
    }
    fs::remove(scratch);

    start = now_ns();
    const auto entries = lz::conformance::FaultHunt::load_corpus(corpus);
    corpus_load_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    constexpr int kRounds = 16;
    start = now_ns();
    for (int r = 0; r < kRounds; ++r) {
      for (const auto& entry : entries) {
        const auto back = lz::conformance::schedule_from_hex(
            lz::conformance::schedule_to_hex(entry.schedule));
        if (!back || !(*back == entry.schedule)) {
          throw std::runtime_error("schedule hex round trip changed a schedule");
        }
      }
    }
    codec_ns += static_cast<double>(now_ns() - start);
    codec_entries += static_cast<double>(entries.size()) * kRounds;
  }

  void emit(Report& report, double resume_ms) {
    report.metric("journal.load_ms", quantile(load_ms, 0.5));
    report.metric("journal.bytes_per_candidate", candidates > 0 ? bytes / candidates : 0);
    report.metric("journal.append_us_per_record", appends > 0 ? append_ns / appends / 1e3 : 0);
    report.metric("journal.fsync_ms_per_snapshot",
                  snapshots > 0 ? snapshot_ns / snapshots / 1e6 : 0);
    report.metric("journal.resume_ms", resume_ms);
    report.metric("conformance.schedule_codec_us_per_entry",
                  codec_entries > 0 ? codec_ns / codec_entries / 1e3 : 0);
    report.metric("conformance.corpus_load_us", quantile(corpus_load_us, 0.5));
  }
};

}  // namespace

void run_fault_hunt(const Options& options, Report& report) {
  report.workers = kWorkers;
  const std::vector<lz::clients::ClientProfile> profiles =
      lz::clients::local_testbed_profiles();
  const auto hunts = static_cast<std::uint64_t>(
      std::max(1.0, std::round(kHuntsPerSecond * options.seconds)));
  fs::create_directories(options.work_dir);
  const std::string journal = (fs::path{options.work_dir} / "hunt.journal").string();
  const std::string corpus = (fs::path{options.work_dir} / "corpus.txt").string();
  const std::string resumed_corpus =
      (fs::path{options.work_dir} / "corpus.resumed.txt").string();
  const std::string scratch = (fs::path{options.work_dir} / "scratch.journal").string();

  // Warm-up: single-fault matrices of kWarmupMatrices seeds on this thread,
  // then a short journaled
  // hunt (and its resume) through the same files, all on seeds outside the
  // measured range. The matrix makes sure the thread's message pool and the
  // allocator have met every fault kind's wire, garbage included, before the
  // first timed hunt; otherwise whichever hunt happens to come first decides
  // that state, and with it the speed of the whole run.
  {
    lz::campaign::RunnerOptions inline_runner;
    inline_runner.workers = kWorkers;
    lz::campaign::CallbackSink<ConformanceRecord> ignore{
        [](const lz::campaign::ScenarioSpec&, ConformanceRecord) {}};
    for (std::uint64_t k = 0; k < kWarmupMatrices; ++k) {
      const lz::conformance::ConformanceHarness harness{{.seed = kWarmupSeed + k}};
      lz::campaign::Registry<ConformanceRecord> registry;
      lz::conformance::register_conformance_executor(registry, harness, profiles);
      registry.run(lz::campaign::CampaignRunner{inline_runner},
                   harness.differential_specs(profiles), ignore);
    }

    fs::remove(journal);
    lz::conformance::FaultHunt warm{
        hunt_options(kWarmupSeed, 8, journal), profiles};
    warm.run();
    lz::conformance::FaultHunt{hunt_options(kWarmupSeed, 8, journal),
                               profiles}
        .run();
    fs::remove(journal);
  }
  report.end_setup();
  if (options.setup_only) return;

  ChunkTimes times;
  std::vector<double> resume_ms;
  double hunt_ns = 0;
  double candidates = 0;
  std::size_t failures = 0;
  std::size_t resumes_equal = 0;
  std::string first_corpus;
  std::vector<std::vector<lz::conformance::CorpusEntry>> probed_corpora;
  std::vector<std::uint64_t> probed_seeds;
  JournalLedger journal_ledger;
  std::string first_error;

  for (std::uint64_t h = 0; h < hunts; ++h) {
    const std::uint64_t hunt_seed = campaign_seed(options.seed, h);
    fs::remove(journal);
    auto o = hunt_options(hunt_seed, kBudget, journal);
    const lz::simnet::ScenarioPool& worlds = lz::simnet::ScenarioPool::local();
    std::uint64_t last = 0;
    std::uint64_t last_leases = 0;
    o.after_cell = [&](int) {
      const std::uint64_t t = now_ns();
      const std::uint64_t cells = std::max<std::uint64_t>(worlds.leases() - last_leases, 1);
      times.add_cells(static_cast<double>(t - last) / static_cast<double>(cells), cells);
      last = t;
      last_leases = worlds.leases();
    };
    try {
      times.begin_chunk();
      last = now_ns();
      last_leases = worlds.leases();
      const std::uint64_t start = last;
      const std::uint64_t first_lease = last_leases;
      lz::conformance::HuntResult result = lz::conformance::FaultHunt{o, profiles}.run();
      lz::conformance::FaultHunt::write_corpus(corpus, result.corpus);
      const double ns = static_cast<double>(now_ns() - start);
      hunt_ns += ns;
      candidates += kBudget;
      times.end_chunk(static_cast<double>(worlds.leases() - first_lease), ns);

      // Crash-recovery path: the same command against the completed journal.
      o.after_cell = nullptr;
      const std::uint64_t resume_start = now_ns();
      const lz::conformance::HuntResult again = lz::conformance::FaultHunt{o, profiles}.run();
      lz::conformance::FaultHunt::write_corpus(resumed_corpus, again.corpus);
      resume_ms.push_back(static_cast<double>(now_ns() - resume_start) / 1e6);

      const std::string bytes = read_file(corpus);
      if (again.resumed && bytes == read_file(resumed_corpus)) ++resumes_equal;
      if (h == 0) first_corpus = bytes;
      if (h < kProbedHunts) {
        probed_corpora.push_back(result.corpus);
        probed_seeds.push_back(hunt_seed);
        if (options.traced) {
          journal_ledger.probe(journal, corpus, scratch, o.snapshot_every);
        }
      }
    } catch (const std::exception& e) {
      ++failures;
      if (first_error.empty()) first_error = e.what();
    }
  }
  report.metric("process.peak_rss_mb", peak_rss_mb());
  report.attempted = times.cells();
  const double candidates_per_s = candidates / (hunt_ns / 1e9);
  report.info("candidates_per_s", candidates_per_s);
  times.report(report);
  const double resume_median = quantile(resume_ms, 0.5);
  report.info("hunts", static_cast<double>(hunts));
  report.info("resume_ms_p50", resume_median);
  Digest digest;
  digest.add(first_corpus);
  report.info("digest", digest.hex());

  report.check("hunts_completed", failures == 0,
               failures == 0 ? "none failed"
                             : std::to_string(failures) + " failed: " + first_error);
  report.failed += failures;
  report.check("resume_reproduces_corpus", resumes_equal == hunts,
               std::to_string(resumes_equal) + " of " + std::to_string(hunts) +
                   " completed-journal re-runs wrote a byte-identical corpus");
  report.failed += hunts - std::min<std::uint64_t>(hunts, resumes_equal + failures);
  if (options.seed == kDefaultSeed) {
    const bool ok = digest.hex() == expected_digest(options.workload);
    report.check("expected_digest", ok,
                 digest.hex() + " vs expected " + expected_digest(options.workload));
    report.failed += ok ? 0 : 1;
  }

  // Corpus replay through the campaign pool: every corpus schedule against
  // every profile must reproduce the violation count the hunt recorded. The
  // replay's executor is wrapped like the other workloads' (exec.*,
  // campaign.*), and the first two entries of each probed corpus also run
  // as mirror cells.
  lz::campaign::RunnerOptions runner_options;
  runner_options.workers = kWorkers;
  const lz::campaign::CampaignRunner runner{runner_options};
  CampaignLedger ledger;
  ledger.workers = kWorkers;
  Tracer tracer;
  LayerLedger layers;
  std::size_t entries_checked = 0, entries_wrong = 0, mirrored = 0, mismatched = 0;
  on_fresh_thread([&] {
    for (std::size_t k = 0; k < probed_corpora.size(); ++k) {
      const lz::conformance::ConformanceOptions harness_options{.seed = probed_seeds[k]};
      const lz::conformance::ConformanceHarness harness{harness_options};
      lz::campaign::Registry<ConformanceRecord> registry;
      lz::conformance::register_conformance_executor(registry, harness, profiles);
      std::vector<lz::campaign::ScenarioSpec> specs;
      for (const auto& entry : probed_corpora[k]) {
        for (const auto& profile : profiles) {
          specs.push_back(harness.schedule_spec(profile, entry.schedule, 2));
          specs.back().id = specs.size() - 1;
        }
      }
      std::vector<int> violations(probed_corpora[k].size(), 0);
      lz::campaign::CallbackSink<ConformanceRecord> sink{
          [&](const lz::campaign::ScenarioSpec& spec, ConformanceRecord record) {
            violations[spec.id / profiles.size()] += record.violations();
          }};
      TimedSink<ConformanceRecord> timed_sink{sink};
      const lz::campaign::SpecStream stream = lz::campaign::SpecStream::view(specs);
      std::vector<std::uint64_t> cell_ns;
      const PassTiming timing = run_timed_campaign<ConformanceRecord>(
          runner, stream,
          [&registry](const lz::campaign::ScenarioSpec& spec) {
            return registry.execute(spec);
          },
          timed_sink, cell_ns);
      ledger.add_pass(stream, cell_ns, timing);
      ledger.sink_ns += static_cast<double>(timed_sink.ns());
      ledger.sink_cells += static_cast<double>(timed_sink.cells());
      for (std::size_t e = 0; e < violations.size(); ++e) {
        ++entries_checked;
        entries_wrong += violations[e] == probed_corpora[k][e].violations ? 0 : 1;
      }
      for (std::size_t i = 0; i < specs.size() && i < 2 * profiles.size(); ++i) {
        const lz::clients::ClientProfile& profile = profiles[i % profiles.size()];
        const std::string expected = text_of(registry.execute(specs[i]));
        const std::string mirror = text_of(mirror_conformance_cell(
            profile, harness_options, specs[i], static_cast<std::uint32_t>(mirrored),
            tracer, layers));
        ++mirrored;
        mismatched += expected == mirror ? 0 : 1;
      }
    }
  });
  report.check("corpus_replays_violations", entries_wrong == 0 && entries_checked > 0,
               std::to_string(entries_wrong) + " of " + std::to_string(entries_checked) +
                   " corpus entries replayed to a different violation count");
  report.failed += entries_wrong;
  report.check("mirror_cells_equal_executor", mismatched == 0 && mirrored > 0,
               std::to_string(mismatched) + " of " + std::to_string(mirrored) +
                   " mirror cells differ from the executor's record");
  report.failed += mismatched;

  if (options.traced) {
    layers.emit(report);
    ledger.emit(report, times.cells_per_s());
    journal_ledger.emit(report, resume_median);
    report.metric("hunt.candidates_per_s", candidates_per_s);
    if (!options.trace_out.empty()) tracer.write(options.trace_out);
  }
  fs::remove(journal);
  fs::remove(corpus);
  fs::remove(resumed_corpus);
}

}  // namespace perf
