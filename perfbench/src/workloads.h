// The benchmark's workloads. Each runs its untimed set-up (spec generation,
// executor registration, pool start, warm-up), stamps report.setup_end_ns,
// returns early for --setup-only, then runs its timed closed loop, checks
// its outputs and — in a traced run — fills the per-layer metrics.
#pragma once

#include <string>

#include "common.h"

namespace perf {

/// Default workload seed; the expected output digests (main.cc) are for it.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Campaign (and hunt) seeds of the conformance and hunt workloads:
/// consecutive, starting at the workload seed. Neighbouring workload seeds
/// share most of their campaign seeds, so a handful of rare, very expensive
/// cells (malformed-DNS decodes) cannot swing one run against the next.
inline std::uint64_t campaign_seed(std::uint64_t workload_seed, std::uint64_t k) {
  return workload_seed + k;
}

/// First seed of every run's warm-up: the same for all workload seeds (so
/// set-up does the same work in every run) and far outside any measured
/// range.
inline constexpr std::uint64_t kWarmupSeed = 1ULL << 32;

void run_paper_repro(const Options& options, Report& report);
void run_conformance_matrix(const Options& options, Report& report);
void run_fault_hunt(const Options& options, Report& report);

/// Expected digest of the workload's checked output at kDefaultSeed, or ""
/// when none is recorded.
std::string expected_digest(const std::string& workload);

}  // namespace perf
