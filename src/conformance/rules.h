// Machine-checkable RFC 8305 rules over capture-derived evidence.
//
// Each rule maps black-box packet-capture evidence (capture/analysis.h) plus
// a few scenario facts to a Verdict: pass, violate, or inapplicable (the run
// never put the client in the situation the clause constrains). Reference
// values come from the he::HeOptions RFC 8305 preset (Table 1), NOT from the
// client profile under test — the checker measures distance from the RFC,
// not from the client's own configuration.
#pragma once

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

struct Verdict {
  std::string rule;
  RuleOutcome outcome = RuleOutcome::kInapplicable;
  std::string evidence;
};

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

/// The checker's rule set, in fixed table order (stable across runs):
/// resolution-delay, attempt-spacing, family-interleave, losing-family,
/// restart-cache, abort-on-winner.
const std::vector<Rule>& rfc8305_rules();

/// Runs every rule; verdicts come back in rule-table order.
std::vector<Verdict> evaluate_rules(const RuleContext& ctx);

}  // namespace lazyeye::conformance
