// lazyeye benchmark program. One process runs one workload once:
//
//   lazyeye_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--setup-only] [--work-dir <dir>] [--trace-out <file>]
//
// and prints one JSON object as its last stdout line (see Report::json).
// perfbench/run.py builds this program, launches it, and turns that object
// into the benchmark's result line. Exit codes: 0 ran (correct or not —
// see "correct"), 2 bad arguments, 3 refused build type, 1 run aborted.
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif
#ifndef PERF_CXX_FLAGS
#define PERF_CXX_FLAGS "unknown"
#endif
#ifndef PERF_COMPILER
#define PERF_COMPILER "unknown"
#endif

namespace perf {

std::string expected_digest(const std::string& workload) {
  // Digests of the checked output at kDefaultSeed (see each workload's
  // "digest" info): paper-repro's record digest, conformance-matrix's
  // verdict tables of its first 16 campaign seeds, fault-hunt's first
  // corpus file (byte-identical to `lazyeye_hunt hunt --budget 32 --seed 1`'s).
  if (workload == "paper-repro") return "61080f474c957335";
  if (workload == "conformance-matrix") return "9b6189be42effeb0";
  if (workload == "fault-hunt") return "87d277e3be41c9a2";
  return "";
}

}  // namespace perf

int main(int argc, char** argv) {
  perf::Options options;
  std::string error;
  if (!perf::parse_options(argc, argv, options, error)) {
    std::fprintf(stderr, "lazyeye_perfbench: %s\n", error.c_str());
    return 2;
  }
  if (std::string{PERF_BUILD_TYPE} != "Release") {
    std::fprintf(stderr,
                 "lazyeye_perfbench: refusing to measure a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERF_BUILD_TYPE);
    return 3;
  }
  if (options.traced != perf::allocs_counted()) {
    std::fprintf(stderr, "lazyeye_perfbench: --trace %d needs the %s executable\n",
                 options.traced ? 1 : 0,
                 options.traced ? "lazyeye_perfbench_traced" : "lazyeye_perfbench");
    return 2;
  }

  perf::Report report;
  report.info("build_type", PERF_BUILD_TYPE);
  report.info("cxx_flags", PERF_CXX_FLAGS);
  report.info("compiler", PERF_COMPILER);
  try {
    if (options.workload == "paper-repro") {
      perf::run_paper_repro(options, report);
    } else if (options.workload == "conformance-matrix") {
      perf::run_conformance_matrix(options, report);
    } else if (options.workload == "fault-hunt") {
      if (options.work_dir.empty()) {
        std::fprintf(stderr, "lazyeye_perfbench: fault-hunt needs --work-dir\n");
        return 2;
      }
      perf::run_fault_hunt(options, report);
    } else {
      std::fprintf(stderr, "lazyeye_perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lazyeye_perfbench: run aborted: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
