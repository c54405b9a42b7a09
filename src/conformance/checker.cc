#include "conformance/checker.h"

#include <memory>
#include <span>
#include <utility>

#include "capture/analysis.h"
#include "dns/test_params.h"
#include "testbed/world.h"
#include "util/strings.h"

namespace lazyeye::conformance {

using simnet::Family;

int ConformanceRecord::violations() const {
  int n = 0;
  for (const Verdict& v : verdicts) {
    if (v.outcome == RuleOutcome::kViolate) ++n;
  }
  return n;
}

std::string ConformanceRecord::symbols() const {
  std::string out;
  out.reserve(verdicts.size());
  for (const Verdict& v : verdicts) out.push_back(rule_outcome_symbol(v.outcome));
  return out;
}

ConformanceHarness::ConformanceHarness(ConformanceOptions options)
    : options_{options} {}

campaign::ScenarioSpec ConformanceHarness::case_spec(
    const clients::ClientProfile& profile, const FaultPlan& plan,
    int fetches) const {
  campaign::ScenarioSpec spec;
  // The plan IS the replay handle: deriving the cell seed from it (and
  // nothing else) is what makes `example_conformance_probe` reproduce a
  // campaign cell bit-for-bit from the one-line repro.
  spec.seed = plan.rng_seed();
  spec.id = plan.index;
  spec.repetition = 0;
  spec.client = profile.display_name();
  spec.payload = campaign::ConformanceCase{plan, fetches};
  return spec;
}

campaign::ScenarioSpec ConformanceHarness::schedule_spec(
    const clients::ClientProfile& profile, const FaultSchedule& schedule,
    int fetches) const {
  campaign::ScenarioSpec spec;
  // Like case_spec: the schedule is the whole replay handle. rng_seed()
  // folds the entry content, so a mutated schedule runs a distinct world
  // while equal schedules always collide onto the same one.
  spec.seed = schedule.rng_seed();
  spec.id = schedule.index;
  spec.repetition = 0;
  spec.client = profile.display_name();
  spec.payload = campaign::ScheduleCase{schedule, fetches};
  return spec;
}

std::vector<campaign::ScenarioSpec> ConformanceHarness::differential_specs(
    const std::vector<clients::ClientProfile>& profiles,
    int repetitions) const {
  std::vector<campaign::ScenarioSpec> specs;
  specs.reserve(all_fault_kinds().size() * profiles.size() *
                static_cast<std::size_t>(repetitions));
  std::uint64_t id = 0;
  for (const FaultKind kind : all_fault_kinds()) {
    std::uint32_t index = 0;
    for (const clients::ClientProfile& profile : profiles) {
      for (int rep = 0; rep < repetitions; ++rep) {
        FaultPlan plan;
        plan.kind = kind;
        plan.seed = options_.seed;
        plan.stream = static_cast<std::uint32_t>(kind);
        plan.index = index++;
        campaign::ScenarioSpec spec = case_spec(profile, plan, /*fetches=*/2);
        spec.id = id++;
        spec.repetition = rep;
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

ConformanceRecord ConformanceHarness::run_spec(
    const clients::ClientProfile& profile,
    const campaign::ScenarioSpec& spec) const {
  // A plan runs as a one-entry always-on schedule; a schedule cell's
  // entries stay in its spec, which outlives the world.
  TimedFault single;
  std::span<const TimedFault> entries{&single, 1};
  const FaultSchedule* schedule = nullptr;
  int fetches = 1;
  if (const auto* cell = spec.get_if<campaign::ConformanceCase>()) {
    single.plan = cell->fault;
    fetches = cell->fetches;
  } else if (const auto* cell2 = spec.get_if<campaign::ScheduleCase>()) {
    schedule = &cell2->schedule;
    entries = schedule->entries;
    fetches = cell2->fetches;
  } else {
    throw std::invalid_argument(
        lazyeye::str_cat("ConformanceHarness::run_spec: unsupported case ",
                         campaign::case_name(spec.payload)));
  }
  // Zone origin and name stem parsed once per process, not per cell.
  static const dns::DnsName zone_origin = dns::DnsName::must_parse("conf.lab");
  static const dns::DnsName name_stem =
      dns::DnsName::must_parse("run.conf.lab");
  const dns::DnsName name =
      dns::make_test_name(name_stem, lazyeye::str_cat(spec.seed), {});
  const testbed::TwoNodeWorld w{
      profile, zone_origin, testbed::cell_net_seed(options_.seed, spec.seed),
      testbed::cell_client_seed(options_.seed, spec.seed),
      [&](testbed::TwoNodeWorld& world) {
        // Real server first (clients that honour record order try it
        // first), then unresponsive decoys so interleaving/abandonment
        // have observable choices.
        const testbed::TwoNodeAddresses& addrs = testbed::two_node_addresses();
        world.zone->add_a(name, addrs.server_v4.v4());
        world.zone->add_aaaa(name, addrs.server_v6.v6());
        for (int i = 1; i <= options_.decoys_per_family; ++i) {
          world.zone->add_a(name, dns::decoy_v4(i));
          world.zone->add_aaaa(name, dns::decoy_v6(i));
        }
        // The cell's faults interpose on the server's DNS and TCP stacks.
        simnet::Arena& arena = world.lease.arena();
        auto* injector = arena.create<ScheduleInjector>(
            entries, &world.net->loop(), &arena);
        injector->attach(*world.auth);
        injector->attach(*world.server_tcp);
      }};
  const auto* cap =
      w.lease.arena().create<capture::PacketCapture>(*w.client_host);

  bool first_fetch_ok = false;
  clients::FetchResult last_fetch;
  SimTime first_completed{0};
  // The restart (second fetch) runs in the same client session — no
  // reset_state() — so the engine's RFC 6555 §4.1 winner cache applies and
  // the restart-cache rule can observe whether DNS is re-queried.
  w.client->fetch(name, 443, [&](clients::FetchResult r) {
    first_fetch_ok = r.connection.ok && r.response_received;
    last_fetch = std::move(r);
    first_completed = w.net->loop().now();
    if (fetches >= 2) {
      w.client->fetch(name, 443, [&](clients::FetchResult r2) {
        last_fetch = std::move(r2);
      });
    }
  });
  w.net->loop().run();

  RuleContext ctx;
  ctx.fetches = fetches;
  ctx.first_fetch_ok = first_fetch_ok;
  ctx.first_fetch_completed = first_completed;
  ctx.v4_candidates = 1 + options_.decoys_per_family;
  ctx.v6_candidates = 1 + options_.decoys_per_family;

  ctx.dns = capture::dns_exchanges(*cap);
  ctx.attempts = capture::connection_attempts(*cap);
  ctx.established = capture::established_family(*cap);
  ctx.established_time = capture::first_established_time(*cap);
  // ctx.dns already decoded every DNS packet once; reuse it.
  ctx.first_a_response = capture::first_response_time(ctx.dns, dns::RrType::kA);
  ctx.first_aaaa_response =
      capture::first_response_time(ctx.dns, dns::RrType::kAaaa);
  ctx.first_v4_syn = capture::first_syn_time(*cap, Family::kIpv4);
  ctx.first_v6_syn = capture::first_syn_time(*cap, Family::kIpv6);

  ConformanceRecord record;
  record.client = profile.display_name();
  record.fault = single.plan;  // the default plan in a schedule cell
  if (schedule != nullptr) record.schedule = *schedule;
  record.fetches = fetches;
  record.fetch_ok = last_fetch.connection.ok && last_fetch.response_received;
  record.first_fetch_ok = ctx.first_fetch_ok;
  record.verdicts = evaluate_rules(ctx);
  return record;
}

ConformanceRecord ConformanceHarness::replay(
    const clients::ClientProfile& profile, const FaultPlan& plan,
    int fetches) const {
  return run_spec(profile, case_spec(profile, plan, fetches));
}

ConformanceRecord ConformanceHarness::replay_schedule(
    const clients::ClientProfile& profile, const FaultSchedule& schedule,
    int fetches) const {
  return run_spec(profile, schedule_spec(profile, schedule, fetches));
}

// ---- VerdictTableSink ------------------------------------------------------

namespace {

/// One table row: client, fault and rules in left-aligned columns.
void append_row(std::string& out, std::string_view client,
                std::string_view fault, std::string_view rules,
                std::string_view fetch) {
  lazyeye::append_padded(out, client, 28);
  out += ' ';
  lazyeye::append_padded(out, fault, 18);
  out += ' ';
  lazyeye::append_padded(out, rules, 7);
  lazyeye::str_append(out, ' ', fetch, '\n');
}

}  // namespace

void VerdictTableSink::begin(std::size_t cells_total) {
  text_.clear();
  total_violations_ = 0;
  cells_ = 0;
  text_ += "conformance verdict table (";
  for (std::size_t i = 0; i < rfc8305_rules().size(); ++i) {
    if (i > 0) text_ += ", ";
    text_ += rfc8305_rules()[i].name;
  }
  lazyeye::str_append(text_, ") — ", cells_total, " cells\n");
  append_row(text_, "client", "fault", "rules", "fetch");
}

void VerdictTableSink::cell(const campaign::ScenarioSpec& spec,
                            ConformanceRecord record) {
  (void)spec;
  ++cells_;
  const std::string fault_column =
      record.schedule
          ? lazyeye::str_cat("schedule[", record.schedule->entries.size(), ']')
          : std::string{fault_kind_name(record.fault.kind)};
  append_row(text_, record.client, fault_column, record.symbols(),
             record.fetch_ok ? "ok" : "fail");
  for (const Verdict& v : record.verdicts) {
    if (v.outcome != RuleOutcome::kViolate) continue;
    ++total_violations_;
    lazyeye::str_append(text_, "    V ", rule_name(v.rule), ": ");
    render_evidence(v, text_);
    text_ += '\n';
    lazyeye::str_append(text_,
                        "      repro: ./build/example_conformance_probe \"",
                        record.client, '"');
    if (record.schedule) {
      const FaultSchedule& s = *record.schedule;
      // Triple form when the schedule is its triple's generate() output;
      // hex form (always exact) for mutated/minimized schedules.
      if (s == FaultSchedule::generate(s.seed, s.stream, s.index)) {
        lazyeye::str_append(text_, " --schedule ", s.seed, ' ', s.stream,
                            ' ', s.index, '\n');
      } else {
        lazyeye::str_append(text_, " --schedule-hex ", schedule_to_hex(s),
                            '\n');
      }
      continue;
    }
    lazyeye::str_append(text_, ' ', fault_kind_name(record.fault.kind), ' ',
                        record.fault.seed, ' ', record.fault.stream, ' ',
                        record.fault.index, '\n');
  }
}

void VerdictTableSink::end() {
  lazyeye::str_append(text_, "total violations: ", total_violations_,
                      " across ", cells_, " cells\n");
}

}  // namespace lazyeye::conformance
