#include "conformance/rules.h"

#include <algorithm>

#include "he/options.h"
#include "util/strings.h"

namespace lazyeye::conformance {

using simnet::Family;

static_assert(static_cast<std::size_t>(EvidenceKind::kAllSilentAfterWinner) +
                  1 ==
              kEvidenceKindCount);

char rule_outcome_symbol(RuleOutcome outcome) {
  switch (outcome) {
    case RuleOutcome::kPass: return 'P';
    case RuleOutcome::kViolate: return 'V';
    case RuleOutcome::kInapplicable: return '-';
  }
  return '?';
}

const char* rule_name(RuleId rule) {
  return rfc8305_rules()[static_cast<std::size_t>(rule)].name;
}

unsigned evidence_durations(EvidenceKind kind) {
  switch (kind) {
    case EvidenceKind::kV4InsideResolutionDelay:
    case EvidenceKind::kWaitedResolutionDelay:
    case EvidenceKind::kGapBelowMinimum:
    case EvidenceKind::kGapAboveMaximum:
    case EvidenceKind::kGapsWithinBounds:
      return 3;
    case EvidenceKind::kStartedAfterWinner:
    case EvidenceKind::kRetransmittedAfterWinner:
      return 1;
    default:
      return 0;
  }
}

void render_evidence(const Verdict& verdict, std::string& out) {
  const Evidence& e = verdict.evidence;
  const char* family = simnet::family_name(e.family);
  const char* other = simnet::family_name(simnet::other_family(e.family));
  switch (e.kind) {
    case EvidenceKind::kNone:
      return;
    case EvidenceKind::kNoAnswerThenV4Attempt:
      out += "needs an A answer followed by a v4 attempt";
      return;
    case EvidenceKind::kAaaaNotAfterA:
      out += "AAAA answered no later than A";
      return;
    case EvidenceKind::kV4BeforeAAnswer:
      out += "v4 attempt predates the A answer";
      return;
    case EvidenceKind::kV4WaitedOutAaaa:
      out += "v4 attempt waited out the AAAA answer";
      return;
    case EvidenceKind::kV4InsideResolutionDelay:
      lazyeye::str_append(out, "connected v4 ", format_duration(e.time),
                          " after the A answer with AAAA outstanding (RD >= ",
                          format_duration(e.bound), ')');
      return;
    case EvidenceKind::kWaitedResolutionDelay:
      lazyeye::str_append(out, "waited ", format_duration(e.time), " (>= ",
                          format_duration(e.bound), ") for AAAA");
      return;
    case EvidenceKind::kFewerThanTwoAttempts:
      out += "fewer than two attempts";
      return;
    case EvidenceKind::kGapBelowMinimum:
      lazyeye::str_append(out, "attempts ", e.count - 1, " and ", e.count,
                          " spaced ", format_duration(e.time), " (< ",
                          format_duration(e.bound), " minimum CAD)");
      return;
    case EvidenceKind::kGapAboveMaximum:
      lazyeye::str_append(out, "attempts ", e.count - 1, " and ", e.count,
                          " spaced ", format_duration(e.time), " (> ",
                          format_duration(e.bound), " maximum CAD)");
      return;
    case EvidenceKind::kOnlyGapsAfterFailures:
      out += "all successive attempts followed failed ones";
      return;
    case EvidenceKind::kGapsWithinBounds:
      lazyeye::str_append(out, e.count, " racing gap(s) within [",
                          format_duration(e.time), ", ",
                          format_duration(e.bound), ']');
      return;
    case EvidenceKind::kSingleFamilyCandidates:
      out += "single-family candidate set";
      return;
    case EvidenceKind::kSameFamilyRun:
      lazyeye::str_append(out, "attempts ", e.count - 1, " and ", e.count,
                          " both ", family, " while ", other,
                          " addresses were untried");
      return;
    case EvidenceKind::kInterleaved:
      lazyeye::str_append(out, e.count, " attempts interleaved by family");
      return;
    case EvidenceKind::kNeedsBothFamilies:
      out += "needs resolved addresses for both families";
      return;
    case EvidenceKind::kEstablished:
      out += "connection established, no abandonment situation";
      return;
    case EvidenceKind::kBothFamiliesTried:
      out += "both families attempted before giving up";
      return;
    case EvidenceKind::kOneFamilyTried:
      lazyeye::str_append(out, "failed with only ", family, " attempted; ",
                          other, " never tried despite resolved addresses");
      return;
    case EvidenceKind::kSingleFetch:
      out += "single-fetch cell";
      return;
    case EvidenceKind::kFirstFetchFailed:
      out += "first fetch failed, nothing to cache";
      return;
    case EvidenceKind::kNoRequery:
      out += "restart reused the session's cached winner (no re-query)";
      return;
    case EvidenceKind::kRequeried:
      lazyeye::str_append(
          out, e.count,
          " DNS queries after the first fetch completed within the cache TTL");
      return;
    case EvidenceKind::kNoWinner:
      out += "no connection ever won";
      return;
    case EvidenceKind::kNoPendingAttempt:
      out += "no pending attempt beside the winner";
      return;
    case EvidenceKind::kStartedAfterWinner:
      lazyeye::str_append(out, "attempt ", e.count, " (", family,
                          ") started ", format_duration(e.time),
                          " after a connection was established");
      return;
    case EvidenceKind::kRetransmittedAfterWinner:
      lazyeye::str_append(out, "attempt ", e.count, " (", family,
                          ") still retransmitting ", format_duration(e.time),
                          " after the winner established (never aborted)");
      return;
    case EvidenceKind::kAllSilentAfterWinner:
      out += "all pending attempts went silent once a connection won";
      return;
  }
}

namespace {

/// RFC 8305 reference parameters (Table 1 preset) the rules measure against.
const he::HeOptions& reference() {
  static const he::HeOptions ref = he::HeOptions::rfc8305();
  return ref;
}

/// Whether `attempt` started at or before establishment (every attempt
/// does when the run never established): the window the connection-phase
/// clauses constrain.
bool pre_establishment(const RuleContext& ctx,
                       const capture::ConnectionAttempt& attempt) {
  return !ctx.established_time || attempt.first_syn <= *ctx.established_time;
}

Verdict eval_resolution_delay(const RuleContext& ctx) {
  const auto inapplicable = [](EvidenceKind kind) {
    return Verdict{RuleId::kResolutionDelay, RuleOutcome::kInapplicable,
                   {.kind = kind}};
  };
  const SimTime ref_rd = *reference().resolution_delay;
  if (!ctx.first_a_response || !ctx.first_v4_syn) {
    return inapplicable(EvidenceKind::kNoAnswerThenV4Attempt);
  }
  if (ctx.first_aaaa_response &&
      *ctx.first_aaaa_response <= *ctx.first_a_response) {
    return inapplicable(EvidenceKind::kAaaaNotAfterA);
  }
  if (*ctx.first_v4_syn < *ctx.first_a_response) {
    return inapplicable(EvidenceKind::kV4BeforeAAnswer);
  }
  if (ctx.first_aaaa_response &&
      *ctx.first_v4_syn >= *ctx.first_aaaa_response) {
    return Verdict{RuleId::kResolutionDelay, RuleOutcome::kPass,
                   {.kind = EvidenceKind::kV4WaitedOutAaaa}};
  }
  const SimTime waited = *ctx.first_v4_syn - *ctx.first_a_response;
  if (waited < ref_rd) {
    return Verdict{RuleId::kResolutionDelay, RuleOutcome::kViolate,
                   {.kind = EvidenceKind::kV4InsideResolutionDelay,
                    .time = waited,
                    .bound = ref_rd}};
  }
  return Verdict{RuleId::kResolutionDelay, RuleOutcome::kPass,
                 {.kind = EvidenceKind::kWaitedResolutionDelay,
                  .time = waited,
                  .bound = ref_rd}};
}

Verdict eval_attempt_spacing(const RuleContext& ctx) {
  const he::DynamicCad& bounds = reference().dynamic_cad;
  // Walks the pre-establishment attempts in order; `i` is the position of
  // `attempt` among them.
  const capture::ConnectionAttempt* previous = nullptr;
  std::uint32_t i = 0;
  std::uint32_t gaps = 0;
  for (const capture::ConnectionAttempt& attempt : ctx.attempts) {
    if (!pre_establishment(ctx, attempt)) continue;
    // RFC 8305 §5 allows the next attempt to begin immediately once the
    // previous one failed; only pace attempts racing a still-pending one.
    if (previous != nullptr && !previous->refused) {
      ++gaps;
      const SimTime gap = attempt.first_syn - previous->first_syn;
      if (gap < bounds.minimum) {
        return Verdict{RuleId::kAttemptSpacing, RuleOutcome::kViolate,
                       {.kind = EvidenceKind::kGapBelowMinimum,
                        .count = i,
                        .time = gap,
                        .bound = bounds.minimum}};
      }
      if (gap > bounds.maximum) {
        return Verdict{RuleId::kAttemptSpacing, RuleOutcome::kViolate,
                       {.kind = EvidenceKind::kGapAboveMaximum,
                        .count = i,
                        .time = gap,
                        .bound = bounds.maximum}};
      }
    }
    previous = &attempt;
    ++i;
  }
  if (i < 2) {
    return Verdict{RuleId::kAttemptSpacing, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kFewerThanTwoAttempts}};
  }
  if (gaps == 0) {
    return Verdict{RuleId::kAttemptSpacing, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kOnlyGapsAfterFailures}};
  }
  return Verdict{RuleId::kAttemptSpacing, RuleOutcome::kPass,
                 {.kind = EvidenceKind::kGapsWithinBounds,
                  .count = gaps,
                  .time = bounds.minimum,
                  .bound = bounds.maximum}};
}

Verdict eval_family_interleave(const RuleContext& ctx) {
  if (ctx.v4_candidates == 0 || ctx.v6_candidates == 0) {
    return Verdict{RuleId::kFamilyInterleave, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kSingleFamilyCandidates}};
  }
  const auto fafc =
      static_cast<std::uint32_t>(reference().first_address_family_count);
  const std::uint32_t first_checked = std::max<std::uint32_t>(1, fafc);
  // Walks the pre-establishment attempts in order; `i` is the position of
  // `attempt` among them and `distinct` counts, per family, the addresses
  // the attempts before it tried.
  int distinct[2] = {0, 0};
  const capture::ConnectionAttempt* previous = nullptr;
  std::uint32_t i = 0;
  for (std::size_t k = 0; k < ctx.attempts.size(); ++k) {
    const capture::ConnectionAttempt& attempt = ctx.attempts[k];
    if (!pre_establishment(ctx, attempt)) continue;
    const Family family = attempt.family();
    if (i >= first_checked && previous->family() == family) {
      const Family other = simnet::other_family(family);
      const int other_total =
          other == Family::kIpv4 ? ctx.v4_candidates : ctx.v6_candidates;
      if (distinct[static_cast<int>(other)] < other_total) {
        return Verdict{RuleId::kFamilyInterleave, RuleOutcome::kViolate,
                       {.kind = EvidenceKind::kSameFamilyRun,
                        .family = family,
                        .count = i}};
      }
    }
    bool seen = false;
    for (std::size_t j = 0; j < k && !seen; ++j) {
      const capture::ConnectionAttempt& earlier = ctx.attempts[j];
      seen = pre_establishment(ctx, earlier) && earlier.family() == family &&
             earlier.remote.addr == attempt.remote.addr;
    }
    if (!seen) ++distinct[static_cast<int>(family)];
    previous = &attempt;
    ++i;
  }
  if (i < 2) {
    return Verdict{RuleId::kFamilyInterleave, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kFewerThanTwoAttempts}};
  }
  return Verdict{RuleId::kFamilyInterleave, RuleOutcome::kPass,
                 {.kind = EvidenceKind::kInterleaved, .count = i}};
}

Verdict eval_losing_family(const RuleContext& ctx) {
  bool a_answered = false;
  bool aaaa_answered = false;
  for (const auto& ex : ctx.dns) {
    if (!ex.response_time || ex.answer_count == 0) continue;
    if (ex.qtype == dns::RrType::kA) a_answered = true;
    if (ex.qtype == dns::RrType::kAaaa) aaaa_answered = true;
  }
  if (!a_answered || !aaaa_answered) {
    return Verdict{RuleId::kLosingFamily, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kNeedsBothFamilies}};
  }
  if (ctx.established) {
    return Verdict{RuleId::kLosingFamily, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kEstablished}};
  }
  bool tried_v4 = false;
  bool tried_v6 = false;
  for (const auto& attempt : ctx.attempts) {
    (attempt.family() == Family::kIpv4 ? tried_v4 : tried_v6) = true;
  }
  if (tried_v4 && tried_v6) {
    return Verdict{RuleId::kLosingFamily, RuleOutcome::kPass,
                   {.kind = EvidenceKind::kBothFamiliesTried}};
  }
  return Verdict{RuleId::kLosingFamily, RuleOutcome::kViolate,
                 {.kind = EvidenceKind::kOneFamilyTried,
                  .family = tried_v6 ? Family::kIpv6 : Family::kIpv4}};
}

Verdict eval_restart_cache(const RuleContext& ctx) {
  if (ctx.fetches < 2) {
    return Verdict{RuleId::kRestartCache, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kSingleFetch}};
  }
  if (!ctx.first_fetch_ok) {
    return Verdict{RuleId::kRestartCache, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kFirstFetchFailed}};
  }
  std::uint32_t requeries = 0;
  for (const auto& ex : ctx.dns) {
    if (ex.qtype != dns::RrType::kA && ex.qtype != dns::RrType::kAaaa) {
      continue;
    }
    if (ex.query_time >= ctx.first_fetch_completed) ++requeries;
  }
  if (requeries == 0) {
    return Verdict{RuleId::kRestartCache, RuleOutcome::kPass,
                   {.kind = EvidenceKind::kNoRequery}};
  }
  return Verdict{RuleId::kRestartCache, RuleOutcome::kViolate,
                 {.kind = EvidenceKind::kRequeried, .count = requeries}};
}

Verdict eval_abort_on_winner(const RuleContext& ctx) {
  if (!ctx.established_time) {
    return Verdict{RuleId::kAbortOnWinner, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kNoWinner}};
  }
  if (ctx.attempts.size() < 2) {
    return Verdict{RuleId::kAbortOnWinner, RuleOutcome::kInapplicable,
                   {.kind = EvidenceKind::kNoPendingAttempt}};
  }
  const SimTime won = *ctx.established_time;
  // RFC 8305 s5: once one attempt succeeds, every other pending attempt
  // must be cancelled. Cancellation is observable as silence: a client that
  // keeps an attempt alive re-transmits its SYN (or opens a brand-new
  // attempt) after the winner's handshake completed.
  for (std::size_t i = 0; i < ctx.attempts.size(); ++i) {
    const auto& attempt = ctx.attempts[i];
    if (attempt.established) continue;  // the winner itself
    if (attempt.first_syn > won) {
      return Verdict{RuleId::kAbortOnWinner, RuleOutcome::kViolate,
                     {.kind = EvidenceKind::kStartedAfterWinner,
                      .family = attempt.family(),
                      .count = static_cast<std::uint32_t>(i),
                      .time = attempt.first_syn - won}};
    }
    if (attempt.last_syn > won) {
      return Verdict{RuleId::kAbortOnWinner, RuleOutcome::kViolate,
                     {.kind = EvidenceKind::kRetransmittedAfterWinner,
                      .family = attempt.family(),
                      .count = static_cast<std::uint32_t>(i),
                      .time = attempt.last_syn - won}};
    }
  }
  return Verdict{RuleId::kAbortOnWinner, RuleOutcome::kPass,
                 {.kind = EvidenceKind::kAllSilentAfterWinner}};
}

}  // namespace

const std::array<Rule, kRuleCount>& rfc8305_rules() {
  static constexpr std::array<Rule, kRuleCount> rules{{
      {"resolution-delay", "RFC 8305 s3", &eval_resolution_delay},
      {"attempt-spacing", "RFC 8305 s5", &eval_attempt_spacing},
      {"family-interleave", "RFC 8305 s4", &eval_family_interleave},
      {"losing-family", "RFC 8305 s6", &eval_losing_family},
      {"restart-cache", "RFC 6555 s4.1", &eval_restart_cache},
      {"abort-on-winner", "RFC 8305 s5", &eval_abort_on_winner},
  }};
  return rules;
}

std::vector<Verdict> evaluate_rules(const RuleContext& ctx) {
  std::vector<Verdict> out;
  out.reserve(kRuleCount);
  for (const Rule& rule : rfc8305_rules()) {
    out.push_back(rule.evaluate(ctx));
  }
  return out;
}

}  // namespace lazyeye::conformance
