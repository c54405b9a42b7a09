// Test parameters encoded in query names (paper §4.1 (ii)).
//
// The paper's authoritative server derives per-query behaviour from labels in
// the qname: the delay to apply, the record type to delay, and a nonce that
// defeats caching. Grammar used here (one or more parameter labels anywhere
// in the name):
//
//   d<ms>-<type>     delay responses to queries of <type> by <ms> milliseconds
//                    (<type> in {a, ns, cname, soa, txt, aaaa, opt, svcb,
//                    https}, the names rr_type_from_name knows, or all for
//                    every type; <ms> at most one day, 86400000 — a larger
//                    value is no delay label)
//   n<alnum>         nonce label (ignored by the server, unique per test run)
//
// Example: n42x7.d250-aaaa.rd-test.he.lab
//   -> AAAA queries for this name are answered after 250 ms; other types
//      immediately. The nonce makes the name unique per repetition.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "dns/name.h"
#include "dns/rr.h"
#include "simnet/ip.h"
#include "util/time.h"

namespace lazyeye::dns {

/// Parameters parsed from one qname. Parsing allocates nothing: the delays
/// sit in a fixed array and the nonce views the qname's bytes, so a
/// TestParams must not outlive the DnsName it was parsed from.
struct TestParams {
  /// One summed delay per record type named in a delay label.
  struct TypedDelay {
    RrType type;
    SimTime delay;
  };
  /// One slot for every type rr_type_from_name knows, so distinct types can
  /// never overflow it.
  static constexpr std::size_t kMaxTypedDelays = 9;

  /// Per-type response delays, in first-seen order (absent type => no delay).
  std::array<TypedDelay, kMaxTypedDelays> delays{};
  std::size_t delay_count = 0;
  /// Delay applied to all types (combined additively with per-type delays).
  SimTime all_delay{0};
  /// Nonce label without its 'n', if present (a view into the qname).
  std::string_view nonce;

  /// Effective delay for a query of `type`.
  SimTime delay_for(RrType type) const;

  /// True if any parameter label was present.
  bool any() const {
    return all_delay.count() > 0 || delay_count > 0 || !nonce.empty();
  }
};

/// Extracts parameters from a qname. Returns nullopt when the name carries
/// no parameter labels at all.
std::optional<TestParams> parse_test_params(const DnsName& qname);

/// Builds "<nonce-label>.<delay-labels>.<base>" for a test run.
/// `delays` maps record types to delays; types sharing a delay get their own
/// labels.
DnsName make_test_name(const DnsName& base, std::string_view nonce,
                       const std::map<RrType, SimTime>& delays);

/// The `i`-th unresponsive decoy address (no host owns it) a test world
/// publishes beside its real server, 1 <= i <= 255: 10.99.0.<i>.
simnet::Ipv4Address decoy_v4(int i);

/// The IPv6 decoy, 1 <= i <= 9999: 2001:db8:dead::<i>, whose last group is
/// i's decimal digits read as hex (i = 10 is group 0x10), the address the
/// text "2001:db8:dead::10" always named.
simnet::Ipv6Address decoy_v6(int i);

}  // namespace lazyeye::dns
