#include "he/options.h"

#include <algorithm>

#include "util/strings.h"

namespace lazyeye::he {

SimTime DynamicCad::effective(std::optional<SimTime> smoothed_rtt) const {
  if (!smoothed_rtt) return no_history_default;
  const auto scaled = SimTime{static_cast<std::int64_t>(
      static_cast<double>(smoothed_rtt->count()) * rtt_multiplier)};
  return std::clamp(scaled, minimum, maximum);
}

SimTime HeOptions::effective_cad(std::optional<SimTime> smoothed_rtt) const {
  if (dynamic_cad.enabled) return dynamic_cad.effective(smoothed_rtt);
  return connection_attempt_delay;
}

Status HeOptions::validate() const {
  if (first_address_family_count < 1) {
    return Status::failure(lazyeye::str_format(
        "first_address_family_count must be >= 1 (got %d)",
        first_address_family_count));
  }
  if (max_addresses_per_family < 1) {
    return Status::failure(lazyeye::str_format(
        "max_addresses_per_family must be >= 1 (got %d)",
        max_addresses_per_family));
  }
  if (resolution_delay && resolution_delay->count() < 0) {
    return Status::failure(lazyeye::str_format(
        "resolution_delay must be non-negative (got %s)",
        format_duration(*resolution_delay).c_str()));
  }
  if (connection_attempt_delay.count() < 0) {
    return Status::failure(lazyeye::str_format(
        "connection_attempt_delay must be non-negative (got %s)",
        format_duration(connection_attempt_delay).c_str()));
  }
  if (overall_timeout.count() <= 0) {
    return Status::failure(lazyeye::str_format(
        "overall_timeout must be positive (got %s)",
        format_duration(overall_timeout).c_str()));
  }
  return Status{};
}

HeOptions HeOptions::rfc6555() {
  HeOptions o;
  // HEv1 has no DNS handling: the client waits for the full resolution.
  o.wait_for_a_record = true;
  o.resolution_delay = std::nullopt;
  // "IPv6 once, then IPv4": one address per family, no interlacing.
  o.interlace = InterlaceMode::kNone;
  o.max_addresses_per_family = 1;
  // RFC 6555 recommends 150-250 ms; use the upper bound.
  o.connection_attempt_delay = lazyeye::ms(250);
  return o;
}

HeOptions HeOptions::rfc8305() {
  HeOptions o;
  o.resolution_delay = lazyeye::ms(50);
  o.first_address_family_count = 1;
  o.interlace = InterlaceMode::kAlternate;
  o.connection_attempt_delay = lazyeye::ms(250);
  return o;
}

HeOptions HeOptions::none() {
  HeOptions o;
  o.wait_for_a_record = true;
  o.resolution_delay = std::nullopt;
  o.fallback_enabled = false;
  o.interlace = InterlaceMode::kNone;
  o.max_addresses_per_family = 1;
  o.cache_ttl = SimTime{0};
  return o;
}

}  // namespace lazyeye::he
