// lazylint conformance tests: every rule must catch its violation fixture,
// every annotated fixture must pass, suppression hygiene must be enforced,
// and the real tree must lint clean (the same invariant the `lint` ctest
// entry and the CI static-analysis job enforce via the CLI).
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace {

using lazyeye::lint::Finding;
using lazyeye::lint::Rule;

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Scans a fixture file as if it lived at `rel_path` in the repo.
std::vector<Finding> scan_fixture(const std::string& fixture,
                                  const std::string& rel_path) {
  const std::string content =
      read_file(std::string{LAZYLINT_FIXTURE_DIR} + "/" + fixture);
  return lazyeye::lint::scan_source(rel_path, content);
}

std::size_t count_rule(const std::vector<Finding>& findings, Rule rule) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::string render(const std::vector<Finding>& findings) {
  return lazyeye::lint::format_findings(findings);
}

// ---------------------------------------------------------------- rules ----

TEST(LazylintRules, NondeterminismViolationsAllCaught) {
  const auto findings =
      scan_fixture("nondeterminism_violation.cc", "src/he/fixture.cc");
  EXPECT_EQ(count_rule(findings, Rule::kNondeterminism), 6u)
      << render(findings);
  EXPECT_EQ(findings.size(), 6u) << render(findings);
}

TEST(LazylintRules, NondeterminismAnnotatedScansClean) {
  const auto findings =
      scan_fixture("nondeterminism_annotated.cc", "src/he/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, NondeterminismOutOfScopeInBench) {
  // Benches legitimately time campaigns with wall clocks; the rule is
  // scoped to src/.
  const auto findings =
      scan_fixture("nondeterminism_violation.cc", "bench/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, NondeterminismInScopeInUtil) {
  // src/util/ has no wall-clock exemption: nothing in src/ reads the host.
  const auto findings =
      scan_fixture("nondeterminism_violation.cc", "src/util/fixture.cc");
  EXPECT_EQ(count_rule(findings, Rule::kNondeterminism), 6u)
      << render(findings);
  EXPECT_EQ(findings.size(), 6u) << render(findings);
}

TEST(LazylintRules, UnorderedIterViolationsAllCaught) {
  const auto findings =
      scan_fixture("unordered_iter_violation.cc", "src/campaign/fixture.cc");
  EXPECT_EQ(count_rule(findings, Rule::kUnorderedIter), 3u)
      << render(findings);
  EXPECT_EQ(findings.size(), 3u) << render(findings);
}

TEST(LazylintRules, UnorderedIterAnnotatedScansClean) {
  const auto findings =
      scan_fixture("unordered_iter_annotated.cc", "src/campaign/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, PtrOrderViolationsAllCaught) {
  const auto findings =
      scan_fixture("ptr_order_violation.cc", "src/campaign/fixture.cc");
  EXPECT_EQ(count_rule(findings, Rule::kPtrOrder), 3u) << render(findings);
  EXPECT_EQ(findings.size(), 3u) << render(findings);
}

TEST(LazylintRules, PtrOrderAnnotatedScansClean) {
  const auto findings =
      scan_fixture("ptr_order_annotated.cc", "src/campaign/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, RawAllocViolationsAllCaught) {
  const auto findings =
      scan_fixture("raw_alloc_violation.cc", "src/simnet/fixture.cc");
  EXPECT_EQ(count_rule(findings, Rule::kRawAlloc), 5u) << render(findings);
  EXPECT_EQ(findings.size(), 5u) << render(findings);
}

TEST(LazylintRules, RawAllocAnnotatedScansClean) {
  const auto findings =
      scan_fixture("raw_alloc_annotated.cc", "src/simnet/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, RawAllocOutOfScopeOutsidePooledDirs) {
  const auto findings =
      scan_fixture("raw_alloc_violation.cc", "src/campaign/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, RawAllocExemptInPoolImplementations) {
  // The arena/pool implementations are the one place raw allocation is the
  // point.
  const auto findings =
      scan_fixture("raw_alloc_violation.cc", "src/simnet/arena.h");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, StdFunctionViolationsAllCaught) {
  const auto findings =
      scan_fixture("std_function_violation.cc", "src/simnet/fixture.cc");
  EXPECT_EQ(count_rule(findings, Rule::kStdFunction), 2u) << render(findings);
  EXPECT_EQ(findings.size(), 2u) << render(findings);
}

TEST(LazylintRules, StdFunctionAnnotatedScansClean) {
  const auto findings =
      scan_fixture("std_function_annotated.cc", "src/simnet/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, StdFunctionOutOfScopeOutsideSimnet) {
  const auto findings =
      scan_fixture("std_function_violation.cc", "src/dns/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, UnseededRngViolationsAllCaught) {
  const auto findings =
      scan_fixture("unseeded_rng_violation.cc", "src/campaign/fixture.cc");
  EXPECT_EQ(count_rule(findings, Rule::kUnseededRng), 6u) << render(findings);
  EXPECT_EQ(findings.size(), 6u) << render(findings);
}

TEST(LazylintRules, UnseededRngAnnotatedScansClean) {
  const auto findings =
      scan_fixture("unseeded_rng_annotated.cc", "src/campaign/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, UnseededRngControlHasNoFalsePositives) {
  // Engine class definitions, init-list-seeded members, `Rng fork();`
  // declarations, reference params, and seeded constructions stay legal.
  const auto findings =
      scan_fixture("unseeded_rng_control.cc", "src/campaign/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, UnseededRngInScopeInUtil) {
  // Unlike nondeterminism, the rule covers src/util/ — the engine
  // implementations must thread seeds explicitly too.
  const auto findings =
      scan_fixture("unseeded_rng_violation.cc", "src/util/fixture.cc");
  EXPECT_EQ(count_rule(findings, Rule::kUnseededRng), 6u) << render(findings);
}

TEST(LazylintRules, UnseededRngOutOfScopeInTests) {
  const auto findings =
      scan_fixture("unseeded_rng_violation.cc", "tests/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LazylintRules, CleanFixtureHasNoFalsePositives) {
  // Scanned under src/simnet/ where every rule is in scope; the fixture is
  // all lookalikes (banned words in comments/strings, placement new,
  // members named free/time, unordered find/count, deleted functions).
  const auto findings = scan_fixture("clean.cc", "src/simnet/fixture.cc");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

// --------------------------------------------------------- suppressions ----

TEST(LazylintSuppressions, UnusedSuppressionIsReported) {
  const auto findings = lazyeye::lint::scan_source(
      "src/campaign/fixture.cc",
      "int x = 1;  // lazylint: ptr-order-ok(nothing to suppress here)\n");
  ASSERT_EQ(findings.size(), 1u) << render(findings);
  EXPECT_EQ(findings[0].rule, Rule::kSuppression);
  EXPECT_NE(findings[0].message.find("unused"), std::string::npos);
}

TEST(LazylintSuppressions, EmptyReasonIsReported) {
  const auto findings = lazyeye::lint::scan_source(
      "src/campaign/fixture.cc",
      "std::map<int*, int> by_addr;  // lazylint: ptr-order-ok()\n");
  ASSERT_EQ(findings.size(), 1u) << render(findings);
  EXPECT_EQ(findings[0].rule, Rule::kSuppression);
  EXPECT_NE(findings[0].message.find("reason"), std::string::npos);
}

TEST(LazylintSuppressions, UnknownRuleNameIsReported) {
  const auto findings = lazyeye::lint::scan_source(
      "src/campaign/fixture.cc",
      "int x = 1;  // lazylint: no-such-rule-ok(whatever)\n");
  ASSERT_EQ(findings.size(), 1u) << render(findings);
  EXPECT_EQ(findings[0].rule, Rule::kSuppression);
  EXPECT_NE(findings[0].message.find("unknown rule"), std::string::npos);
}

TEST(LazylintSuppressions, SuppressionOnlyCoversItsRule) {
  // A nondeterminism suppression must not hide a ptr-order finding on the
  // same line.
  const auto findings = lazyeye::lint::scan_source(
      "src/campaign/fixture.cc",
      "std::map<int*, int> m;  // lazylint: nondeterminism-ok(wrong rule)\n");
  ASSERT_EQ(findings.size(), 2u) << render(findings);
  EXPECT_EQ(count_rule(findings, Rule::kPtrOrder), 1u);
  EXPECT_EQ(count_rule(findings, Rule::kSuppression), 1u);  // unused
}

// ----------------------------------------------------------- whole tree ----

TEST(LazylintTree, RepositoryLintsClean) {
  const lazyeye::lint::TreeReport report =
      lazyeye::lint::scan_tree(LAZYEYE_SOURCE_DIR);
  EXPECT_GT(report.files_scanned, 100);  // src + bench + tests + examples
  EXPECT_TRUE(report.findings.empty()) << render(report.findings);
}

}  // namespace
