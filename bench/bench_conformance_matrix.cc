// Conformance matrix bench: the differential RFC 8305 campaign — every
// fault kind (control cell first) against every local-testbed client
// profile, two fetches per cell — run through the campaign worker pool at
// 1, 2, 4, and 8 workers. The verdict table each count streams out must be
// BYTE-IDENTICAL: the table doubles as the determinism fingerprint, and the
// bench exits non-zero on the first mismatch.
//
// `--table <path>` writes the 1-worker verdict table (the CI artifact
// uploaded next to perf-smoke-json). `--smoke` shrinks the matrix to three
// profiles and worker counts 1 and 2 — an API/determinism gate, not a
// measurement. Any other argument, or `--table` without a path, prints the
// usage line and exits 2 before the matrix is built.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/schedule.h"

using namespace lazyeye;

int main(int argc, char** argv) {
  bool smoke = false;
  std::string table_path;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--table") == 0 && a + 1 < argc) {
      table_path = argv[++a];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--table <path>]\n", argv[0]);
      return 2;
    }
  }

  std::vector<clients::ClientProfile> profiles =
      clients::local_testbed_profiles();
  if (smoke) profiles.resize(3);
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  const conformance::ConformanceHarness harness{{.seed = 1}};
  const auto specs = harness.differential_specs(profiles);

  campaign::Registry<conformance::ConformanceRecord> registry;
  conformance::register_conformance_executor(registry, harness, profiles);

  std::printf("Conformance matrix%s: %zu fault kinds x %zu clients = %zu "
              "cells (2 fetches each)\n\n",
              smoke ? " (smoke mode)" : "",
              conformance::all_fault_kinds().size(), profiles.size(),
              specs.size());
  std::printf("%8s %12s %12s %12s\n", "workers", "wall [ms]", "cells/sec",
              "violations");

  std::string baseline_table;
  int baseline_violations = 0;
  for (const int workers : worker_counts) {
    const campaign::CampaignRunner runner{{.workers = workers}};

    conformance::VerdictTableSink sink;
    const auto start = std::chrono::steady_clock::now();
    registry.run(runner, specs, sink);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double seconds = std::chrono::duration<double>(elapsed).count();

    if (workers == worker_counts.front()) {
      baseline_table = sink.text();
      baseline_violations = sink.total_violations();
    } else if (sink.text() != baseline_table) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: verdict table at %d workers "
                   "differs from %d-worker baseline\n",
                   workers, worker_counts.front());
      return 1;
    }

    std::printf("%8d %12.1f %12.1f %12d\n", workers, seconds * 1e3,
                specs.size() / seconds, sink.total_violations());
  }

  std::printf("\nAll worker counts produced a byte-identical verdict table "
              "(%d violations across %zu cells).\n",
              baseline_violations, specs.size());

  // Compound-schedule cells through the same pool: generated FaultSchedules
  // (multi-entry, windowed, triggered) against every profile, with the same
  // byte-identity requirement across worker counts.
  const std::size_t schedule_count = smoke ? 8 : 24;
  std::vector<campaign::ScenarioSpec> schedule_specs;
  schedule_specs.reserve(schedule_count * profiles.size());
  for (std::uint32_t index = 0; index < schedule_count; ++index) {
    const conformance::FaultSchedule schedule =
        conformance::FaultSchedule::generate(1, 0xFA, index);
    for (const auto& profile : profiles) {
      schedule_specs.push_back(harness.schedule_spec(profile, schedule, 2));
      schedule_specs.back().id = schedule_specs.size() - 1;
    }
  }

  std::printf("\nSchedule cells: %zu generated schedules x %zu clients = %zu "
              "cells (2 fetches each)\n\n",
              schedule_count, profiles.size(), schedule_specs.size());
  std::printf("%8s %12s %12s %12s\n", "workers", "wall [ms]", "cells/sec",
              "violations");

  std::string schedule_baseline;
  int schedule_violations = 0;
  for (const int workers : worker_counts) {
    const campaign::CampaignRunner runner{{.workers = workers}};

    conformance::VerdictTableSink sink;
    const auto start = std::chrono::steady_clock::now();
    registry.run(runner, schedule_specs, sink);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double seconds = std::chrono::duration<double>(elapsed).count();

    if (workers == worker_counts.front()) {
      schedule_baseline = sink.text();
      schedule_violations = sink.total_violations();
    } else if (sink.text() != schedule_baseline) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: schedule-cell verdict table at %d "
                   "workers differs from %d-worker baseline\n",
                   workers, worker_counts.front());
      return 1;
    }

    std::printf("%8d %12.1f %12.1f %12d\n", workers, seconds * 1e3,
                schedule_specs.size() / seconds, sink.total_violations());
  }

  std::printf("\nAll worker counts produced a byte-identical schedule-cell "
              "table (%d violations across %zu cells).\n",
              schedule_violations, schedule_specs.size());

  if (!table_path.empty()) {
    std::FILE* f = std::fopen(table_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", table_path.c_str());
      return 1;
    }
    const bool written =
        std::fwrite(baseline_table.data(), 1, baseline_table.size(), f) ==
        baseline_table.size();
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s\n", table_path.c_str());
      return 1;
    }
    std::printf("Wrote %s\n", table_path.c_str());
  }
  return 0;
}
