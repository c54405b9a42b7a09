// paper-repro: the paper's clean measurement grids as one mixed-kind
// campaign, repeated pass after pass until the run's seconds are used up.
//
// One pass holds:
//   - Figure 4: web-tool CAD and RD repetitions (18 buckets, persistent
//     client, network noise) for every browser profile;
//   - Table 3: resolver-lab cells of every IPv6-capable service;
//   - Table 2: RD (AAAA and A delayed 600 ms) and 10+10 address-selection
//     cells for every profile;
//   - Figure 2: the fine CAD sweep (0..400 ms, 5 ms steps) for every
//     local-testbed profile.
// No faults, no malformed bytes and no journal: world build, event loop,
// packet path, transport, HE engine, DNS and capture analysis do all the
// work, so decoder- and journal-bound changes must show no change here.
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "clients/profiles.h"
#include "mirror.h"
#include "records.h"
#include "resolverlab/lab.h"
#include "resolvers/service_profiles.h"
#include "testbed/testbed.h"
#include "webtool/webtool.h"
#include "workloads.h"

namespace perf {

namespace lz = lazyeye;

namespace {

constexpr int kWorkers = 1;

/// Digest of every outcome's canonical text, in spec order.
class DigestSink final : public lz::campaign::ResultSink<MixedOutcome> {
 public:
  void cell(const lz::campaign::ScenarioSpec&, MixedOutcome outcome) override {
    scratch_.clear();
    append_text(scratch_, outcome);
    digest_.add(scratch_);
  }
  std::string hex() const { return digest_.hex(); }

 private:
  Digest digest_;
  std::string scratch_;
};

}  // namespace

void run_paper_repro(const Options& options, Report& report) {
  report.workers = kWorkers;
  const std::uint64_t gen_start = now_ns();
  const std::vector<lz::clients::ClientProfile> profiles =
      lz::clients::local_testbed_profiles();

  lz::testbed::TestbedOptions bed_options;
  bed_options.seed = options.seed;
  lz::testbed::LocalTestbed bed{bed_options};
  lz::webtool::WebToolConfig web_config = lz::webtool::WebToolConfig::paper_default();
  web_config.seed = options.seed;
  web_config.repetitions = 1;
  const lz::webtool::WebTool tool{web_config};

  std::vector<lz::resolvers::ServiceProfile> services;
  for (const auto& service : lz::resolvers::all_service_profiles()) {
    if (service.ipv6_resolution_capable) services.push_back(service);
  }
  lz::resolverlab::LabConfig lab = lz::resolverlab::LabConfig::paper_grid();
  lab.seed = options.seed + 41;  // seed 1 -> the lab's default seed 42
  lab.repetitions = 1;

  std::vector<lz::campaign::SpecStream> parts;
  for (const auto& profile : profiles) {
    if (profile.kind != lz::clients::ClientKind::kBrowser) continue;
    parts.push_back(tool.campaign_spec_stream(profile, false, lz::dns::RrType::kAaaa));
    parts.push_back(tool.campaign_spec_stream(profile, true, lz::dns::RrType::kAaaa));
  }
  parts.push_back(lz::resolverlab::cross_service_cell_spec_stream(services, lab));
  std::vector<lz::campaign::ScenarioSpec> table2;
  for (const auto& profile : profiles) {
    table2.push_back(bed.rd_spec(profile, lz::dns::RrType::kAaaa, lz::ms(600)));
    table2.push_back(bed.rd_spec(profile, lz::dns::RrType::kA, lz::ms(600)));
    table2.push_back(bed.address_selection_spec(profile, 10));
  }
  parts.push_back(lz::campaign::SpecStream::of(std::move(table2)));
  parts.push_back(bed.multi_client_cad_stream(
      profiles, lz::testbed::SweepSpec::fine_cad(), 1));
  const lz::campaign::SpecStream pass = concat(std::move(parts));

  lz::campaign::Registry<MixedOutcome> registry;
  lz::testbed::register_executors(registry, bed, profiles);
  lz::webtool::register_executor(registry, tool, profiles);
  lz::resolverlab::register_executor(registry, services);
  const std::function<MixedOutcome(const lz::campaign::ScenarioSpec&)> execute =
      [&registry](const lz::campaign::ScenarioSpec& spec) {
        return registry.execute(spec);
      };
  CampaignLedger ledger;
  ledger.workers = kWorkers;
  ledger.spec_gen_s = static_cast<double>(now_ns() - gen_start) / 1e9;

  lz::campaign::RunnerOptions runner_options;
  runner_options.workers = kWorkers;
  const lz::campaign::CampaignRunner runner{runner_options};

  // Untimed warm-up pass: fills the thread's world and message pools before
  // the first timed cell.
  std::vector<std::uint64_t> cell_ns;
  DigestSink warm_sink;
  const PassTiming warm = run_timed_campaign(runner, pass, execute, warm_sink, cell_ns);
  report.end_setup();
  if (options.setup_only) return;

  ChunkTimes times;
  std::size_t passes = 0;
  std::size_t thrown = warm.thrown;
  std::string first_error = warm.first_error;
  bool digests_equal = true;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds) * 1000000000ULL;
  do {
    DigestSink sink;
    TimedSink<MixedOutcome> timed_sink{sink};
    lz::campaign::ResultSink<MixedOutcome>& target =
        options.traced ? static_cast<lz::campaign::ResultSink<MixedOutcome>&>(timed_sink)
                       : sink;
    times.begin_chunk();
    const PassTiming timing = run_timed_campaign(runner, pass, execute, target, cell_ns);
    for (const std::uint64_t ns : cell_ns) times.add_cells(static_cast<double>(ns));
    times.end_chunk(static_cast<double>(cell_ns.size()), static_cast<double>(timing.wall_ns));
    if (timing.thrown > 0 && first_error.empty()) first_error = timing.first_error;
    thrown += timing.thrown;
    digests_equal = digests_equal && sink.hex() == warm_sink.hex();
    ledger.add_pass(pass, cell_ns, timing);
    ledger.sink_ns += static_cast<double>(timed_sink.ns());
    ledger.sink_cells += static_cast<double>(timed_sink.cells());
    ++passes;
  } while (now_ns() < deadline);
  report.metric("process.peak_rss_mb", peak_rss_mb());
  report.attempted = times.cells();
  times.report(report);
  report.info("passes", static_cast<double>(passes));
  report.info("cells_per_pass", static_cast<double>(pass.size()));
  report.info("digest", warm_sink.hex());

  report.check("executor_errors", thrown == 0,
               thrown == 0 ? "none" : std::to_string(thrown) + " threw: " + first_error);
  report.failed += thrown;
  report.check("pass_digests_equal", digests_equal,
               "every timed pass reproduced the warm-up pass's record digest");
  report.failed += digests_equal ? 0 : 1;
  if (options.seed == kDefaultSeed) {
    const bool ok = warm_sink.hex() == expected_digest(options.workload);
    report.check("expected_digest", ok,
                 warm_sink.hex() + " vs expected " + expected_digest(options.workload));
    report.failed += ok ? 0 : 1;
  }

  // Mirror cells: an evenly spaced sample of the pass's testbed cells, each
  // right after its executor twin.
  Tracer tracer;
  LayerLedger layers;
  std::size_t mirrored = 0;
  std::size_t mismatched = 0;
  const std::size_t stride = pass.size() / 64 + 1;
  on_fresh_thread([&] {
    for (std::size_t i = 0; i < pass.size(); i += stride) {
      const lz::campaign::ScenarioSpec spec = pass.at(i);
      if (spec.kind() != lz::campaign::CaseKind::kCad &&
          spec.kind() != lz::campaign::CaseKind::kResolutionDelay &&
          spec.kind() != lz::campaign::CaseKind::kAddressSelection) {
        continue;
      }
      const lz::clients::ClientProfile& profile = lz::campaign::find_registered(
          profiles, spec.client,
          [](const lz::clients::ClientProfile& p) { return p.display_name(); },
          "mirror");
      const std::string expected = text_of(registry.execute(spec));
      const std::string mirror = text_of(mirror_testbed_cell(
          profile, bed_options, spec, static_cast<std::uint32_t>(mirrored),
          tracer, layers));
      ++mirrored;
      mismatched += expected == mirror ? 0 : 1;
    }
  });
  report.check("mirror_cells_equal_executor", mirrored > 0 && mismatched == 0,
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
