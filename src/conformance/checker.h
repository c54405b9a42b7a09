// ConformanceHarness: differential RFC 8305 conformance campaigns.
//
// Each cell builds the testbed's two-node world (testbed::TwoNodeWorld,
// zone "conf.lab"); its attach hook adds the cell's name and decoy records
// and one ScheduleInjector on the server's DNS and TCP stacks. A compound
// schedule cell injects its entries; a single-fault cell runs its seeded
// FaultPlan as a one-entry always-on schedule. The cell runs the client's
// fetch(es) and evaluates the RFC 8305 rule set over the client-side
// capture. Cells ride the campaign
// engine as ConformanceCase payloads, so a differential matrix — the same
// fault against every client profile — shards across the CampaignRunner
// worker pool with byte-identical verdict tables at any worker count.
//
// Every cell replays from its plan's (seed, stream, index) triple:
//
//   ./build/example_conformance_probe "<client>" <fault> <seed> <stream> <index>
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "clients/profiles.h"
#include "conformance/fault.h"
#include "conformance/rules.h"
#include "conformance/schedule.h"

namespace lazyeye::conformance {

/// One cell's outcome: the fault it ran, whether the fetches succeeded, and
/// the verdict of every rule (rule-table order).
struct ConformanceRecord {
  std::string client;
  FaultPlan fault;
  /// Set for compound-schedule cells (ScheduleCase); `fault` stays at its
  /// default then and the schedule is the replay handle instead.
  std::optional<FaultSchedule> schedule;
  int fetches = 1;
  bool fetch_ok = false;        // the cell's final fetch
  bool first_fetch_ok = false;  // the first fetch (== fetch_ok when fetches=1)
  std::vector<Verdict> verdicts;

  int violations() const;
  /// One symbol per rule, e.g. "P-PV-" (rule-table order).
  std::string symbols() const;
};

struct ConformanceOptions {
  /// Campaign seed — becomes FaultPlan::seed for every generated cell.
  std::uint64_t seed = 1;
  /// Unresponsive decoy addresses per family next to the real server, so
  /// the interleaving/abandonment rules have material to judge.
  int decoys_per_family = 1;
};

class ConformanceHarness {
 public:
  explicit ConformanceHarness(ConformanceOptions options = {});

  const ConformanceOptions& options() const { return options_; }

  /// One cell: `plan` against `profile`. The spec's seed is the plan's
  /// rng_seed(), so the cell's whole world derives from the replay triple.
  campaign::ScenarioSpec case_spec(const clients::ClientProfile& profile,
                                   const FaultPlan& plan,
                                   int fetches = 1) const;

  /// One compound-schedule cell: the spec's seed is the schedule's
  /// rng_seed() (triple + entry content), so campaign, hunt, and both probe
  /// replay paths build byte-identical worlds for equal schedules.
  campaign::ScenarioSpec schedule_spec(const clients::ClientProfile& profile,
                                       const FaultSchedule& schedule,
                                       int fetches = 1) const;

  /// The differential matrix: every fault kind (kNone control first) against
  /// every profile. Fault-kind-major; stream = kind id, index = cell index
  /// within the kind (profile-major, repetition-minor). All cells use
  /// fetches = 2 so the restart-cache rule is exercised.
  std::vector<campaign::ScenarioSpec> differential_specs(
      const std::vector<clients::ClientProfile>& profiles,
      int repetitions = 1) const;

  /// Stateless executor: builds the cell's faulted world, runs it, and
  /// evaluates the rules. Thread-safe across distinct specs.
  ConformanceRecord run_spec(const clients::ClientProfile& profile,
                             const campaign::ScenarioSpec& spec) const;

  /// Replays one cell from its plan — the probe example's entry point.
  ConformanceRecord replay(const clients::ClientProfile& profile,
                           const FaultPlan& plan, int fetches = 2) const;

  /// Replays one compound-schedule cell (probe --schedule/--schedule-hex,
  /// hunt evaluation, corpus reproduction).
  ConformanceRecord replay_schedule(const clients::ClientProfile& profile,
                                    const FaultSchedule& schedule,
                                    int fetches = 2) const;

 private:
  ConformanceOptions options_;
};

/// Plugs ConformanceCase AND ScheduleCase into a campaign registry (both
/// dispatch to run_spec, which switches on the payload); `harness` must
/// outlive the registry, the profile pool is copied into the executor.
template <typename Outcome>
void register_conformance_executor(
    campaign::Registry<Outcome>& registry, const ConformanceHarness& harness,
    std::vector<clients::ClientProfile> profiles) {
  auto pool = std::make_shared<const std::vector<clients::ClientProfile>>(
      std::move(profiles));
  const auto run = [&harness, pool](const campaign::ScenarioSpec& spec) {
    const clients::ClientProfile& profile = campaign::find_registered(
        *pool, spec.client,
        [](const clients::ClientProfile& p) { return p.display_name_view(); },
        "conformance");
    return harness.run_spec(profile, spec);
  };
  registry.template add<campaign::ConformanceCase>(
      [run](const campaign::ScenarioSpec& spec,
            const campaign::ConformanceCase&) { return run(spec); });
  registry.template add<campaign::ScheduleCase>(
      [run](const campaign::ScenarioSpec& spec,
            const campaign::ScheduleCase&) { return run(spec); });
}

/// Streams a verdict table: one fixed-width row per cell plus, for each
/// violation, an evidence line and the single-command repro line. The text
/// is byte-stable for a given matrix (cells arrive in spec order regardless
/// of worker count — the bench asserts this at 1/2/4/8 workers).
class VerdictTableSink final : public campaign::ResultSink<ConformanceRecord> {
 public:
  void begin(std::size_t cells_total) override;
  void cell(const campaign::ScenarioSpec& spec,
            ConformanceRecord record) override;
  void end() override;

  const std::string& text() const { return text_; }
  int total_violations() const { return total_violations_; }
  std::size_t cells() const { return cells_; }

 private:
  std::string text_;
  int total_violations_ = 0;
  std::size_t cells_ = 0;
};

}  // namespace lazyeye::conformance
