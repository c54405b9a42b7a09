// Machine-checkable RFC 8305 rules over capture-derived evidence.
//
// Each rule maps black-box packet-capture evidence (capture/analysis.h) plus
// a few scenario facts to a Verdict: pass, violate, or inapplicable (the run
// never put the client in the situation the clause constrains). A verdict
// is fixed-width values (rule id, outcome, Evidence); its text is written
// only on demand, by rule_name() and render_evidence(). Reference
// values come from the he::HeOptions RFC 8305 preset (Table 1), NOT from the
// client profile under test — the checker measures distance from the RFC,
// not from the client's own configuration.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capture/analysis.h"
#include "simnet/ip.h"
#include "util/time.h"

namespace lazyeye::conformance {

enum class RuleOutcome : std::uint8_t { kPass, kViolate, kInapplicable };

char rule_outcome_symbol(RuleOutcome outcome);  // 'P' / 'V' / '-'

/// The rules, in table order (rfc8305_rules()).
enum class RuleId : std::uint8_t {
  kResolutionDelay,
  kAttemptSpacing,
  kFamilyInterleave,
  kLosingFamily,
  kRestartCache,
  kAbortOnWinner,
};
inline constexpr std::size_t kRuleCount = 6;

/// The rule's short id, e.g. "resolution-delay".
const char* rule_name(RuleId rule);

/// Which sentence a verdict's evidence is. Each kind names the Evidence
/// fields it renders; the others stay zero.
enum class EvidenceKind : std::uint8_t {
  kNone,  // a default Verdict: renders as ""
  // resolution-delay
  kNoAnswerThenV4Attempt,
  kAaaaNotAfterA,
  kV4BeforeAAnswer,
  kV4WaitedOutAaaa,
  kV4InsideResolutionDelay,  // time: A answer to v4 SYN; bound: RD
  kWaitedResolutionDelay,    // time: A answer to v4 SYN; bound: RD
  // attempt-spacing (kFewerThanTwoAttempts also family-interleave)
  kFewerThanTwoAttempts,
  kGapBelowMinimum,  // count: the later attempt; time: gap; bound: min CAD
  kGapAboveMaximum,  // count: the later attempt; time: gap; bound: max CAD
  kOnlyGapsAfterFailures,
  kGapsWithinBounds,  // count: racing gaps; time: min CAD; bound: max CAD
  // family-interleave
  kSingleFamilyCandidates,
  kSameFamilyRun,  // count: the later attempt; family: the repeated one
  kInterleaved,    // count: attempts
  // losing-family
  kNeedsBothFamilies,
  kEstablished,
  kBothFamiliesTried,
  kOneFamilyTried,  // family: the one attempted
  // restart-cache
  kSingleFetch,
  kFirstFetchFailed,
  kNoRequery,
  kRequeried,  // count: DNS queries after the first fetch
  // abort-on-winner
  kNoWinner,
  kNoPendingAttempt,
  kStartedAfterWinner,         // count: attempt; family; time: after the win
  kRetransmittedAfterWinner,   // count: attempt; family; time: after the win
  kAllSilentAfterWinner,
};
inline constexpr std::uint8_t kEvidenceKindCount = 28;

/// What a rule saw, as values: render_evidence writes the sentence.
struct Evidence {
  EvidenceKind kind = EvidenceKind::kNone;
  simnet::Family family = simnet::Family::kIpv4;
  std::uint32_t count = 0;
  SimTime time{0};
  SimTime bound{0};

  bool operator==(const Evidence&) const = default;
};

/// Which of `kind`'s SimTime fields its sentence prints: bit 0 `time`,
/// bit 1 `bound`.
unsigned evidence_durations(EvidenceKind kind);

struct Verdict {
  RuleId rule = RuleId::kResolutionDelay;
  RuleOutcome outcome = RuleOutcome::kInapplicable;
  Evidence evidence;

  bool operator==(const Verdict&) const = default;
};

/// Appends the verdict's evidence sentence, e.g. "waited 43ms (>= 50ms) for
/// AAAA". Text is written only where it leaves the program: the verdict
/// table, the probe, and what tests compare.
void render_evidence(const Verdict& verdict, std::string& out);

inline std::string render_evidence(const Verdict& verdict) {
  std::string out;
  render_evidence(verdict, out);
  return out;
}

/// Everything a rule may look at, extracted once per cell (checker.cc fills
/// it from the scenario facts and the client-side capture).
struct RuleContext {
  // Scenario facts.
  int fetches = 1;
  bool first_fetch_ok = false;
  SimTime first_fetch_completed{0};
  int v4_candidates = 0;  // addresses per family the zone advertised
  int v6_candidates = 0;

  // Capture evidence.
  std::vector<capture::DnsExchange> dns;
  std::vector<capture::ConnectionAttempt> attempts;
  std::optional<simnet::Family> established;
  std::optional<SimTime> established_time;
  std::optional<SimTime> first_a_response;
  std::optional<SimTime> first_aaaa_response;
  std::optional<SimTime> first_v4_syn;
  std::optional<SimTime> first_v6_syn;
};

struct Rule {
  const char* name;    // short id, e.g. "resolution-delay"
  const char* clause;  // the clause it checks, e.g. "RFC 8305 §3"
  Verdict (*evaluate)(const RuleContext&);
};

/// The checker's rule set, in RuleId order (stable across runs):
/// resolution-delay, attempt-spacing, family-interleave, losing-family,
/// restart-cache, abort-on-winner.
const std::array<Rule, kRuleCount>& rfc8305_rules();

/// Runs every rule; verdicts come back in rule-table order. The verdict
/// vector is the only allocation.
std::vector<Verdict> evaluate_rules(const RuleContext& ctx);

}  // namespace lazyeye::conformance
