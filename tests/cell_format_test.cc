// Printf-free cell regression test.
//
// Per-cell text (DNS nonces and test names, world addresses, rule
// evidence, verdict table rows) is written with std::to_chars-based
// appenders, never through the printf family: glibc's printf machinery cost
// about 12% of a warm CAD cell. HE trace details are typed values that a
// cell never renders; HeDetail::text() formats them at the edge. This test holds that
// with a count-based gate. It interposes snprintf, vsnprintf and their
// _FORTIFY_SOURCE twins, forwarding each call to the C library through
// dlsym(RTLD_NEXT), and asserts that warm cells of every kind make no call.
// A deliberate str_format is counted first, so the gate cannot pass because
// the interposer went unused.

// The interposers below define snprintf and vsnprintf themselves; fortified
// headers would make those names inline wrappers instead.
#undef _FORTIFY_SOURCE

#include <dlfcn.h>

#include <atomic>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/fault.h"
#include "conformance/schedule.h"
#include "resolverlab/lab.h"
#include "resolvers/service_profiles.h"
#include "testbed/testbed.h"
#include "util/strings.h"
#include "webtool/webtool.h"

namespace {

std::atomic<std::uint64_t> g_printf_calls{0};

template <typename Fn>
Fn next_symbol(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

using VsnprintfFn = int (*)(char*, std::size_t, const char*, va_list);
using VsnprintfChkFn = int (*)(char*, std::size_t, int, std::size_t,
                               const char*, va_list);

VsnprintfFn real_vsnprintf() {
  static const auto fn = next_symbol<VsnprintfFn>("vsnprintf");
  return fn;
}

VsnprintfChkFn real_vsnprintf_chk() {
  static const auto fn = next_symbol<VsnprintfChkFn>("__vsnprintf_chk");
  return fn;
}

}  // namespace

extern "C" {

int __vsnprintf_chk(char* s, std::size_t maxlen, int flag, std::size_t slen,
                    const char* format, va_list ap);
int __snprintf_chk(char* s, std::size_t maxlen, int flag, std::size_t slen,
                   const char* format, ...);

int vsnprintf(char* s, std::size_t maxlen, const char* format,
              va_list ap) noexcept {
  g_printf_calls.fetch_add(1, std::memory_order_relaxed);
  return real_vsnprintf()(s, maxlen, format, ap);
}

int snprintf(char* s, std::size_t maxlen, const char* format, ...) noexcept {
  g_printf_calls.fetch_add(1, std::memory_order_relaxed);
  va_list ap;
  va_start(ap, format);
  const int n = real_vsnprintf()(s, maxlen, format, ap);
  va_end(ap);
  return n;
}

int __vsnprintf_chk(char* s, std::size_t maxlen, int flag, std::size_t slen,
                    const char* format, va_list ap) {
  g_printf_calls.fetch_add(1, std::memory_order_relaxed);
  return real_vsnprintf_chk()(s, maxlen, flag, slen, format, ap);
}

int __snprintf_chk(char* s, std::size_t maxlen, int flag, std::size_t slen,
                   const char* format, ...) {
  g_printf_calls.fetch_add(1, std::memory_order_relaxed);
  va_list ap;
  va_start(ap, format);
  const int n = real_vsnprintf_chk()(s, maxlen, flag, slen, format, ap);
  va_end(ap);
  return n;
}

}  // extern "C"

namespace lazyeye {
namespace {

/// Runs `unit(0..warmup-1)` so one-off initialisation (per-process literal
/// tables, pools) happens outside the window, then expects the next
/// `measured` units to make no printf-family call.
template <typename Unit>
void expect_printf_free(const char* what, Unit&& unit, int warmup = 4,
                        int measured = 8) {
  for (int i = 0; i < warmup; ++i) unit(i);
  const std::uint64_t before = g_printf_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < measured; ++i) unit(warmup + i);
  const std::uint64_t calls =
      g_printf_calls.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(calls, 0u) << what << ": " << calls << " printf-family calls over "
                       << measured << " warm units ("
                       << static_cast<double>(calls) / measured
                       << " per unit)";
}

clients::ClientProfile chrome() {
  return clients::chromium_profile("Chrome", "130.0", "10-2024");
}

/// The first `count` generated schedules, in index order, that truncate or
/// corrupt DNS wire (`malformed_dns`) or never do.
std::vector<conformance::FaultSchedule> generated_schedules(
    std::size_t count, bool malformed_dns) {
  std::vector<conformance::FaultSchedule> schedules;
  for (std::uint32_t index = 0; schedules.size() < count; ++index) {
    conformance::FaultSchedule schedule =
        conformance::FaultSchedule::generate(7, 0, index);
    bool malformed = false;
    for (const conformance::TimedFault& entry : schedule.entries) {
      malformed = malformed ||
                  entry.plan.kind == conformance::FaultKind::kDnsTruncate ||
                  entry.plan.kind == conformance::FaultKind::kDnsCorrupt;
    }
    if (malformed == malformed_dns) schedules.push_back(std::move(schedule));
  }
  return schedules;
}

TEST(CellFormatTest, InterposerCountsStrFormat) {
  const std::uint64_t before = g_printf_calls.load();
  const std::string text = str_format("%d-%s", 42, "x");
  EXPECT_EQ(text, "42-x");
  EXPECT_GE(g_printf_calls.load() - before, 1u)
      << "the snprintf interposers never ran; the gates below would pass "
         "vacuously";
}

TEST(CellFormatTest, TestbedCellsArePrintfFree) {
  const auto profile = chrome();
  testbed::LocalTestbed bed;
  expect_printf_free("CAD cell",
                     [&](int i) { bed.run_cad_case(profile, ms(50), i); });
  expect_printf_free("RD cell", [&](int i) {
    bed.run_rd_case(profile, dns::RrType::kAaaa, ms(120), i);
  });
  expect_printf_free("address-selection cell", [&](int i) {
    bed.run_address_selection_case(profile, 10, i);
  });
}

TEST(CellFormatTest, ConformanceCellsArePrintfFree) {
  const auto profile = chrome();
  const conformance::ConformanceHarness harness;
  expect_printf_free("single-fault cell", [&](int i) {
    conformance::FaultPlan plan;
    plan.kind = conformance::FaultKind::kTcpReset;
    plan.index = static_cast<std::uint32_t>(i);
    harness.replay(profile, plan);
  });
  for (const bool malformed_dns : {false, true}) {
    const auto schedules = generated_schedules(12, malformed_dns);
    expect_printf_free(
        malformed_dns ? "malformed-DNS schedule cell" : "schedule cell",
        [&](int i) {
          harness.replay_schedule(profile,
                                  schedules[static_cast<std::size_t>(i)]);
        });
  }
}

TEST(CellFormatTest, ResolverLabCellIsPrintfFree) {
  const auto service = resolvers::local_software_profiles().front();
  const campaign::SpecStream cells =
      resolverlab::cross_service_cell_spec_stream(
          {service}, resolverlab::LabConfig::paper_grid());
  expect_printf_free("resolver-lab cell", [&](int i) {
    resolverlab::run_cell(service, cells.at(static_cast<std::size_t>(i) * 5));
  });
}

TEST(CellFormatTest, WebToolRepetitionIsPrintfFree) {
  const auto profile = chrome();
  const webtool::WebTool tool{webtool::WebToolConfig::paper_default()};
  for (const bool rd_mode : {false, true}) {
    const campaign::SpecStream reps =
        tool.campaign_spec_stream(profile, rd_mode, dns::RrType::kAaaa);
    expect_printf_free(
        rd_mode ? "web-tool RD repetition" : "web-tool CAD repetition",
        [&](int i) {
          tool.run_repetition(profile, reps.at(static_cast<std::size_t>(i)));
        },
        2, 4);
  }
}

TEST(CellFormatTest, VerdictTableRowIsPrintfFree) {
  const auto profile = chrome();
  const conformance::ConformanceHarness harness;
  conformance::FaultPlan plan;
  plan.kind = conformance::FaultKind::kDnsStarveFamily;
  std::vector<conformance::ConformanceRecord> records{
      harness.replay(profile, plan),
      harness.replay_schedule(profile,
                              conformance::FaultSchedule::generate(7, 0, 1))};
  // A mutated schedule prints its hex repro instead of the triple.
  conformance::FaultSchedule mutated =
      conformance::FaultSchedule::generate(7, 0, 2);
  mutated.entries.front().start += ms(1);
  records.push_back(harness.replay_schedule(profile, mutated));
  for (auto& record : records) {
    for (auto& verdict : record.verdicts) {
      verdict.outcome = conformance::RuleOutcome::kViolate;
    }
  }

  conformance::VerdictTableSink sink;
  sink.begin(records.size());
  const std::uint64_t before = g_printf_calls.load();
  for (const auto& record : records) sink.cell({}, record);
  EXPECT_EQ(g_printf_calls.load() - before, 0u);
  sink.end();
  EXPECT_EQ(sink.total_violations(),
            static_cast<int>(records.size() * records[0].verdicts.size()));
  EXPECT_NE(sink.text().find("--schedule-hex "), std::string::npos);
  EXPECT_NE(sink.text().find("--schedule 7 0 1"), std::string::npos);
}

}  // namespace
}  // namespace lazyeye
