// Per-cell setup/teardown allocation regression test.
//
// The arena/pool cell-lifecycle overhaul brought one warm small-cell CAD run
// (build world, one fetch, tear down) from ~406 heap allocations to ~80.
// This test holds that win with a count-based gate, the same approach as the
// PR 5 zero-alloc data-path check: global operator new counting, a warm-up
// phase that fills the thread's scenario pool / buffer pools / DNS message
// pools to their high-water marks, then a measured run of cells. The same
// gate holds a single-fault conformance cell and a compound-schedule cell.
// Counting (not timing) keeps the gates deterministic on 1-core CI runners
// and under sanitizers.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/fault.h"
#include "conformance/schedule.h"
#include "testbed/testbed.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lazyeye {
namespace {

// Every gate allows its measured warm count plus this slack for library
// variation, without letting a per-cell cost creep back in.
constexpr std::uint64_t kSlack = 1;

// 5x under the ~406-allocation baseline the overhaul started from. A warm
// CAD cell measures 80.
constexpr std::uint64_t kCadCellBudget = 80 + kSlack;

// A single-fault conformance cell (kTcpReset on Chrome, two fetches)
// measures 151 warm (Debug and Release) on GCC 12.2 / libstdc++.
constexpr std::uint64_t kFaultCellBudget = 151 + kSlack;

// A compound-schedule cell (generated schedules without malformed-DNS
// entries, two fetches on Chrome) measures 161 warm (Debug and Release) on
// GCC 12.2 / libstdc++.
// Cells that decode truncated or corrupt DNS wire are not gated yet: the
// decoder still sizes sections from header counts.
constexpr std::uint64_t kScheduleCellBudget = 161 + kSlack;

constexpr int kWarmupCells = 16;
constexpr int kMeasuredCells = 32;

/// Runs `cell(0..kWarmupCells-1)` to grow the pooled arenas, buffer pools
/// and thread-local DNS message pools to the workload's high-water marks,
/// then returns the mean allocations of the next kMeasuredCells cells. A
/// batch (not a single cell) lets one-off lazy initialisations hiding in
/// libraries average out instead of failing a gate flakily.
template <typename Cell>
std::uint64_t warm_allocations_per_cell(Cell&& cell) {
  for (int i = 0; i < kWarmupCells; ++i) cell(i);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasuredCells; ++i) cell(kWarmupCells + i);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return (after - before) / kMeasuredCells;
}

/// Generated hunt-style schedules whose entries never truncate or corrupt
/// DNS wire, in index order.
std::vector<conformance::FaultSchedule> well_formed_dns_schedules(
    std::size_t count) {
  std::vector<conformance::FaultSchedule> schedules;
  for (std::uint32_t index = 0; schedules.size() < count; ++index) {
    conformance::FaultSchedule schedule =
        conformance::FaultSchedule::generate(7, 0, index);
    const bool malformed_dns = std::any_of(
        schedule.entries.begin(), schedule.entries.end(),
        [](const conformance::TimedFault& entry) {
          return entry.plan.kind == conformance::FaultKind::kDnsTruncate ||
                 entry.plan.kind == conformance::FaultKind::kDnsCorrupt;
        });
    if (!malformed_dns) schedules.push_back(std::move(schedule));
  }
  return schedules;
}

TEST(CellAllocTest, WarmSmallCellStaysUnderBudget) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  testbed::LocalTestbed bed;
  const std::uint64_t per_cell = warm_allocations_per_cell(
      [&](int i) { bed.run_cad_case(profile, ms(50), i); });
  EXPECT_LE(per_cell, kCadCellBudget)
      << "warm per-cell allocations regressed: " << per_cell << " > budget "
      << kCadCellBudget;
}

TEST(CellAllocTest, WarmSingleFaultCellStaysUnderBudget) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const conformance::ConformanceHarness harness;
  const std::uint64_t per_cell = warm_allocations_per_cell([&](int i) {
    conformance::FaultPlan plan;
    plan.kind = conformance::FaultKind::kTcpReset;
    plan.index = static_cast<std::uint32_t>(i);
    harness.replay(profile, plan);
  });
  EXPECT_LE(per_cell, kFaultCellBudget)
      << "warm single-fault cell allocations regressed: " << per_cell
      << " > budget " << kFaultCellBudget;
}

TEST(CellAllocTest, WarmScheduleCellStaysUnderBudget) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const conformance::ConformanceHarness harness;
  const auto schedules =
      well_formed_dns_schedules(kWarmupCells + kMeasuredCells);
  const std::uint64_t per_cell = warm_allocations_per_cell([&](int i) {
    harness.replay_schedule(profile, schedules[static_cast<std::size_t>(i)]);
  });
  EXPECT_LE(per_cell, kScheduleCellBudget)
      << "warm schedule cell allocations regressed: " << per_cell
      << " > budget " << kScheduleCellBudget;
}

// The run itself must still mean something: a cell that silently stopped
// doing work would pass any allocation gate.
TEST(CellAllocTest, MeasuredCellsProduceRealRuns) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  testbed::LocalTestbed bed;
  const auto record = bed.run_cad_case(profile, ms(50), 0);
  EXPECT_TRUE(record.fetch_ok);
  EXPECT_TRUE(record.established_family.has_value());
}

}  // namespace
}  // namespace lazyeye
