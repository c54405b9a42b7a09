#include "conformance/rules.h"

#include <algorithm>

#include "he/options.h"
#include "util/strings.h"

namespace lazyeye::conformance {

using simnet::Family;

char rule_outcome_symbol(RuleOutcome outcome) {
  switch (outcome) {
    case RuleOutcome::kPass: return 'P';
    case RuleOutcome::kViolate: return 'V';
    case RuleOutcome::kInapplicable: return '-';
  }
  return '?';
}

namespace {

/// RFC 8305 reference parameters (Table 1 preset) the rules measure against.
const he::HeOptions& reference() {
  static const he::HeOptions ref = he::HeOptions::rfc8305();
  return ref;
}

/// Attempts started at or before establishment (all of them when the run
/// never established) — the window the connection-phase clauses constrain.
std::vector<const capture::ConnectionAttempt*> pre_establishment(
    const RuleContext& ctx) {
  std::vector<const capture::ConnectionAttempt*> out;
  for (const auto& attempt : ctx.attempts) {
    if (ctx.established_time && attempt.first_syn > *ctx.established_time) {
      continue;
    }
    out.push_back(&attempt);
  }
  return out;
}

Verdict eval_resolution_delay(const RuleContext& ctx) {
  Verdict v{"resolution-delay", RuleOutcome::kInapplicable, ""};
  const SimTime ref_rd = *reference().resolution_delay;
  if (!ctx.first_a_response || !ctx.first_v4_syn) {
    v.evidence = "needs an A answer followed by a v4 attempt";
    return v;
  }
  if (ctx.first_aaaa_response &&
      *ctx.first_aaaa_response <= *ctx.first_a_response) {
    v.evidence = "AAAA answered no later than A";
    return v;
  }
  if (*ctx.first_v4_syn < *ctx.first_a_response) {
    v.evidence = "v4 attempt predates the A answer";
    return v;
  }
  if (ctx.first_aaaa_response &&
      *ctx.first_v4_syn >= *ctx.first_aaaa_response) {
    v.outcome = RuleOutcome::kPass;
    v.evidence = "v4 attempt waited out the AAAA answer";
    return v;
  }
  const SimTime waited = *ctx.first_v4_syn - *ctx.first_a_response;
  if (waited < ref_rd) {
    v.outcome = RuleOutcome::kViolate;
    v.evidence = lazyeye::str_cat(
        "connected v4 ", format_duration(waited),
        " after the A answer with AAAA outstanding (RD >= ",
        format_duration(ref_rd), ')');
  } else {
    v.outcome = RuleOutcome::kPass;
    v.evidence = lazyeye::str_cat("waited ", format_duration(waited), " (>= ",
                                  format_duration(ref_rd), ") for AAAA");
  }
  return v;
}

Verdict eval_attempt_spacing(const RuleContext& ctx) {
  Verdict v{"attempt-spacing", RuleOutcome::kInapplicable, ""};
  const he::DynamicCad& bounds = reference().dynamic_cad;
  const auto attempts = pre_establishment(ctx);
  if (attempts.size() < 2) {
    v.evidence = "fewer than two attempts";
    return v;
  }
  std::size_t gaps = 0;
  for (std::size_t i = 1; i < attempts.size(); ++i) {
    // RFC 8305 §5 allows the next attempt to begin immediately once the
    // previous one failed; only pace attempts racing a still-pending one.
    if (attempts[i - 1]->refused) continue;
    ++gaps;
    const SimTime gap = attempts[i]->first_syn - attempts[i - 1]->first_syn;
    if (gap < bounds.minimum) {
      v.outcome = RuleOutcome::kViolate;
      v.evidence = lazyeye::str_cat(
          "attempts ", i - 1, " and ", i, " spaced ", format_duration(gap),
          " (< ", format_duration(bounds.minimum), " minimum CAD)");
      return v;
    }
    if (gap > bounds.maximum) {
      v.outcome = RuleOutcome::kViolate;
      v.evidence = lazyeye::str_cat(
          "attempts ", i - 1, " and ", i, " spaced ", format_duration(gap),
          " (> ", format_duration(bounds.maximum), " maximum CAD)");
      return v;
    }
  }
  if (gaps == 0) {
    v.evidence = "all successive attempts followed failed ones";
    return v;
  }
  v.outcome = RuleOutcome::kPass;
  v.evidence = lazyeye::str_cat(gaps, " racing gap(s) within [",
                                format_duration(bounds.minimum), ", ",
                                format_duration(bounds.maximum), ']');
  return v;
}

Verdict eval_family_interleave(const RuleContext& ctx) {
  Verdict v{"family-interleave", RuleOutcome::kInapplicable, ""};
  if (ctx.v4_candidates == 0 || ctx.v6_candidates == 0) {
    v.evidence = "single-family candidate set";
    return v;
  }
  const auto attempts = pre_establishment(ctx);
  if (attempts.size() < 2) {
    v.evidence = "fewer than two attempts";
    return v;
  }
  const auto fafc =
      static_cast<std::size_t>(reference().first_address_family_count);
  // Distinct addresses of `family` attempted before index `end`.
  auto distinct_before = [&](Family family, std::size_t end) {
    std::vector<simnet::IpAddress> seen;
    for (std::size_t j = 0; j < end; ++j) {
      if (attempts[j]->family() != family) continue;
      if (std::find(seen.begin(), seen.end(), attempts[j]->remote.addr) ==
          seen.end()) {
        seen.push_back(attempts[j]->remote.addr);
      }
    }
    return static_cast<int>(seen.size());
  };
  for (std::size_t i = std::max<std::size_t>(1, fafc); i < attempts.size();
       ++i) {
    const Family family = attempts[i]->family();
    if (attempts[i - 1]->family() != family) continue;
    const Family other =
        family == Family::kIpv4 ? Family::kIpv6 : Family::kIpv4;
    const int other_total =
        other == Family::kIpv4 ? ctx.v4_candidates : ctx.v6_candidates;
    if (distinct_before(other, i) < other_total) {
      v.outcome = RuleOutcome::kViolate;
      v.evidence = lazyeye::str_cat(
          "attempts ", i - 1, " and ", i, " both ",
          simnet::family_name(family), " while ", simnet::family_name(other),
          " addresses were untried");
      return v;
    }
  }
  v.outcome = RuleOutcome::kPass;
  v.evidence =
      lazyeye::str_cat(attempts.size(), " attempts interleaved by family");
  return v;
}

Verdict eval_losing_family(const RuleContext& ctx) {
  Verdict v{"losing-family", RuleOutcome::kInapplicable, ""};
  bool a_answered = false;
  bool aaaa_answered = false;
  for (const auto& ex : ctx.dns) {
    if (!ex.response_time || ex.answer_count == 0) continue;
    if (ex.qtype == dns::RrType::kA) a_answered = true;
    if (ex.qtype == dns::RrType::kAaaa) aaaa_answered = true;
  }
  if (!a_answered || !aaaa_answered) {
    v.evidence = "needs resolved addresses for both families";
    return v;
  }
  if (ctx.established) {
    v.evidence = "connection established, no abandonment situation";
    return v;
  }
  bool tried_v4 = false;
  bool tried_v6 = false;
  for (const auto& attempt : ctx.attempts) {
    (attempt.family() == Family::kIpv4 ? tried_v4 : tried_v6) = true;
  }
  if (tried_v4 && tried_v6) {
    v.outcome = RuleOutcome::kPass;
    v.evidence = "both families attempted before giving up";
    return v;
  }
  const char* tried = tried_v6 ? "IPv6" : "IPv4";
  const char* abandoned = tried_v6 ? "IPv4" : "IPv6";
  v.outcome = RuleOutcome::kViolate;
  v.evidence = lazyeye::str_cat("failed with only ", tried, " attempted; ",
                                abandoned,
                                " never tried despite resolved addresses");
  return v;
}

Verdict eval_restart_cache(const RuleContext& ctx) {
  Verdict v{"restart-cache", RuleOutcome::kInapplicable, ""};
  if (ctx.fetches < 2) {
    v.evidence = "single-fetch cell";
    return v;
  }
  if (!ctx.first_fetch_ok) {
    v.evidence = "first fetch failed, nothing to cache";
    return v;
  }
  int requeries = 0;
  for (const auto& ex : ctx.dns) {
    if (ex.qtype != dns::RrType::kA && ex.qtype != dns::RrType::kAaaa) {
      continue;
    }
    if (ex.query_time >= ctx.first_fetch_completed) ++requeries;
  }
  if (requeries == 0) {
    v.outcome = RuleOutcome::kPass;
    v.evidence = "restart reused the session's cached winner (no re-query)";
  } else {
    v.outcome = RuleOutcome::kViolate;
    v.evidence = lazyeye::str_cat(
        requeries,
        " DNS queries after the first fetch completed within the cache TTL");
  }
  return v;
}

Verdict eval_abort_on_winner(const RuleContext& ctx) {
  Verdict v{"abort-on-winner", RuleOutcome::kInapplicable, ""};
  if (!ctx.established_time) {
    v.evidence = "no connection ever won";
    return v;
  }
  if (ctx.attempts.size() < 2) {
    v.evidence = "no pending attempt beside the winner";
    return v;
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
      v.outcome = RuleOutcome::kViolate;
      v.evidence = lazyeye::str_cat(
          "attempt ", i, " (", simnet::family_name(attempt.family()),
          ") started ", format_duration(attempt.first_syn - won),
          " after a connection was established");
      return v;
    }
    if (attempt.last_syn > won) {
      v.outcome = RuleOutcome::kViolate;
      v.evidence = lazyeye::str_cat(
          "attempt ", i, " (", simnet::family_name(attempt.family()),
          ") still retransmitting ", format_duration(attempt.last_syn - won),
          " after the winner established (never aborted)");
      return v;
    }
  }
  v.outcome = RuleOutcome::kPass;
  v.evidence = "all pending attempts went silent once a connection won";
  return v;
}

}  // namespace

const std::vector<Rule>& rfc8305_rules() {
  static const std::vector<Rule> rules{
      {"resolution-delay", "RFC 8305 s3", &eval_resolution_delay},
      {"attempt-spacing", "RFC 8305 s5", &eval_attempt_spacing},
      {"family-interleave", "RFC 8305 s4", &eval_family_interleave},
      {"losing-family", "RFC 8305 s6", &eval_losing_family},
      {"restart-cache", "RFC 6555 s4.1", &eval_restart_cache},
      {"abort-on-winner", "RFC 8305 s5", &eval_abort_on_winner},
  };
  return rules;
}

std::vector<Verdict> evaluate_rules(const RuleContext& ctx) {
  std::vector<Verdict> out;
  out.reserve(rfc8305_rules().size());
  for (const Rule& rule : rfc8305_rules()) {
    out.push_back(rule.evaluate(ctx));
  }
  return out;
}

}  // namespace lazyeye::conformance
