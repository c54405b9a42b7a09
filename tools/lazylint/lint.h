// lazylint: repo-specific determinism & hot-path discipline linter.
//
// A token/line-level scanner (no libclang) that enforces the invariants the
// reproduction's claims rest on — byte-identical campaign output at any
// worker count, one-line (seed, stream, index) replay, count-based perf
// gates. Runtime byte-diff checks catch a violation long after the commit
// that introduced it; these rules fail the build at the offending source
// line instead.
//
// Rules (each scoped to the directories where the invariant is mandated):
//   nondeterminism  all of src/, src/util/ included — no wall clocks,
//                   entropy sources, or environment reads; all time is
//                   SimTime, all randomness is the seeded util/ Rng.
//   unordered-iter  everywhere — no iteration (range-for or iterator walks)
//                   over unordered containers; hash order must never leak
//                   into sinks, captures, or aggregate output.
//   ptr-order       everywhere — no ordered containers or comparators keyed
//                   by raw pointer value; addresses differ run to run.
//   raw-alloc       src/{simnet,dns,transport} minus the arena/pool
//                   implementations — no raw new/delete/malloc in the pooled
//                   hot paths; backs the count-based allocation gates with a
//                   source-level gate.
//   std-function    src/simnet — InlineFunction is mandated on the event and
//                   dispatch paths; std::function heap-spills per capture.
//   unseeded-rng    src/ — every RNG engine construction (SplitMix64, Rng,
//                   and the std engines the nondeterminism rule does not
//                   already ban) must carry an explicit seed argument; a
//                   default-constructed engine draws from a silent
//                   implementation seed and breaks (seed, stream, index)
//                   replay.
//
// Suppression is inline only:  // lazylint: <rule>-ok(<reason>)
// on the offending line, or on an immediately preceding comment-only line.
// A suppression with an empty reason, an unknown rule name, or no matching
// finding is itself reported, so the tree never accumulates stale or
// unexplained escapes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lazyeye::lint {

enum class Rule {
  kNondeterminism,
  kUnorderedIter,
  kPtrOrder,
  kRawAlloc,
  kStdFunction,
  kUnseededRng,
  kSuppression,  // malformed / unused suppression annotations
};

/// Stable rule identifier used in suppressions and reports.
std::string_view rule_name(Rule rule);

/// Parses a rule identifier; returns false for unknown names.
bool rule_from_name(std::string_view name, Rule& out);

struct Finding {
  Rule rule = Rule::kSuppression;
  std::string file;  // repo-relative path, forward slashes
  int line = 0;      // 1-based
  std::string message;
};

/// Scans one source file. `rel_path` (repo-relative, forward slashes)
/// selects which rules apply; `content` is the file's full text.
std::vector<Finding> scan_source(std::string_view rel_path,
                                 std::string_view content);

struct TreeReport {
  std::vector<Finding> findings;  // sorted by (file, line)
  int files_scanned = 0;
};

/// Scans src/, bench/, tests/, and examples/ under `root` (every .h/.cc/
/// .hpp/.cpp file). Missing directories are skipped.
TreeReport scan_tree(const std::string& root);

/// "file:line: rule: message" lines, one per finding.
std::string format_findings(const std::vector<Finding>& findings);

}  // namespace lazyeye::lint
