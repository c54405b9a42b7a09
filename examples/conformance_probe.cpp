// Replay one conformance cell from its one-line repro — the single
// documented command every verdict-table violation points back to:
//
//   $ ./build/example_conformance_probe "Chrome 130.0" tcp-reset 1 7 3
//   $ ./build/example_conformance_probe "wget 1.21" none 1 0 0
//   $ ./build/example_conformance_probe "curl 7.88.1" --schedule 1 250 4
//   $ ./build/example_conformance_probe "Edge 130.0" --schedule-hex 0000...01
//   $ ./build/example_conformance_probe            # lists clients and faults
//
// Single-fault cells replay from the plan's (seed, stream, index) triple;
// compound-schedule cells replay either from the schedule's generation
// triple (--schedule) or from the exact schedule bytes (--schedule-hex, the
// form the fault hunt's corpus and the verdict table print for mutated
// schedules). Either way the cell's whole world derives from the handle, so
// the verdicts printed here match the campaign's bit for bit.
//
// Argument handling is strict: unknown clients or fault names, non-numeric
// or out-of-range numbers, and undecodable hex all fail with usage text and
// a non-zero exit — a repro line that cannot run exactly must never half-run.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/schedule.h"
#include "util/strings.h"

using namespace lazyeye;

namespace {

int usage(const char* argv0) {
  std::printf(
      "usage: %s \"<client>\" <fault> <seed> <stream> <index> [fetches]\n"
      "       %s \"<client>\" --schedule <seed> <stream> <index> [fetches]\n"
      "       %s \"<client>\" --schedule-hex <hex> [fetches]\n"
      "\navailable clients:\n",
      argv0, argv0, argv0);
  for (const auto& p : clients::local_testbed_profiles()) {
    std::printf("  %s\n", p.display_name().c_str());
  }
  std::printf("\nfault kinds:\n");
  for (const auto kind : conformance::all_fault_kinds()) {
    std::printf("  %s\n", conformance::fault_kind_name(kind));
  }
  return 2;
}

void print_record(const conformance::ConformanceRecord& record,
                  const char* against) {
  std::printf("%s vs %s  (fetches=%d)\n", record.client.c_str(), against,
              record.fetches);
  std::printf("fetch: first=%s final=%s\n",
              record.first_fetch_ok ? "ok" : "fail",
              record.fetch_ok ? "ok" : "fail");
  for (const auto& v : record.verdicts) {
    std::printf("  [%c] %-18s %s\n",
                conformance::rule_outcome_symbol(v.outcome),
                conformance::rule_name(v.rule),
                conformance::render_evidence(v).c_str());
  }
  std::printf("violations: %d\n", record.violations());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);

  const auto profile = clients::find_client_profile(argv[1]);
  if (!profile) {
    std::fprintf(stderr, "unknown client: %s (run without arguments for the "
                         "list)\n", argv[1]);
    return 1;
  }

  if (std::strcmp(argv[2], "--schedule") == 0) {
    if (argc < 6 || argc > 7) return usage(argv[0]);
    std::uint64_t seed = 0;
    std::uint32_t stream = 0;
    std::uint32_t index = 0;
    int fetches = 2;
    if (!parse_bounded(argv[3], 0, UINT64_MAX, seed) ||
        !parse_bounded(argv[4], 0, UINT32_MAX, stream) ||
        !parse_bounded(argv[5], 0, UINT32_MAX, index) ||
        (argc == 7 && !parse_bounded(argv[6], 1, 16, fetches))) {
      std::fprintf(stderr, "bad --schedule arguments (want numeric seed, "
                           "stream, index, [fetches 1..16])\n");
      return usage(argv[0]);
    }
    const conformance::FaultSchedule schedule =
        conformance::FaultSchedule::generate(seed, stream, index);
    conformance::ConformanceOptions options;
    options.seed = seed;
    const conformance::ConformanceHarness harness{options};
    const auto record = harness.replay_schedule(*profile, schedule, fetches);
    std::printf("# %s (%zu entries)\n", schedule.repro().c_str(),
                schedule.entries.size());
    print_record(record, "compound schedule");
    return 0;
  }

  if (std::strcmp(argv[2], "--schedule-hex") == 0) {
    if (argc < 4 || argc > 5) return usage(argv[0]);
    int fetches = 2;
    if (argc == 5 && !parse_bounded(argv[4], 1, 16, fetches)) {
      std::fprintf(stderr, "bad fetches: %s (want 1..16)\n", argv[4]);
      return usage(argv[0]);
    }
    const auto schedule = conformance::schedule_from_hex(argv[3]);
    if (!schedule) {
      std::fprintf(stderr, "undecodable schedule hex (truncated or corrupt "
                           "repro line?)\n");
      return 1;
    }
    conformance::ConformanceOptions options;
    options.seed = schedule->seed;
    const conformance::ConformanceHarness harness{options};
    const auto record = harness.replay_schedule(*profile, *schedule, fetches);
    std::printf("# schedule seed=%llu stream=%u index=%u (%zu entries)\n",
                static_cast<unsigned long long>(schedule->seed),
                schedule->stream, schedule->index, schedule->entries.size());
    print_record(record, "compound schedule");
    return 0;
  }

  if (argc < 6 || argc > 7) return usage(argv[0]);
  const auto kind = conformance::fault_kind_from_name(argv[2]);
  if (!kind) {
    std::fprintf(stderr, "unknown fault kind: %s (run without arguments for "
                         "the list)\n", argv[2]);
    return 1;
  }

  conformance::FaultPlan plan;
  plan.kind = *kind;
  int fetches = 2;
  if (!parse_bounded(argv[3], 0, UINT64_MAX, plan.seed) ||
      !parse_bounded(argv[4], 0, UINT32_MAX, plan.stream) ||
      !parse_bounded(argv[5], 0, UINT32_MAX, plan.index) ||
      (argc == 7 && !parse_bounded(argv[6], 1, 16, fetches))) {
    std::fprintf(stderr, "bad plan arguments (want numeric seed, stream, "
                         "index, [fetches 1..16])\n");
    return usage(argv[0]);
  }

  // The differential campaign derives every cell plan from its own seed, so
  // matching its harness options means matching its worlds.
  conformance::ConformanceOptions options;
  options.seed = plan.seed;
  const conformance::ConformanceHarness harness{options};
  const auto record = harness.replay(*profile, plan, fetches);

  std::printf("# %s\n", record.fault.repro().c_str());
  print_record(record, conformance::fault_kind_name(record.fault.kind));
  return 0;
}
