// Behaviour knobs for the recursive resolver engine.
//
// Each knob corresponds to an observable the paper measures at the
// authoritative name server (§5.3, Table 3): the order of NS-name AAAA/A
// queries, the IPv6 share of iterative queries, the effective per-attempt
// timeout ("max IPv6 delay used"), retry/backoff behaviour, and whether the
// resolver interleaves address families when retrying. What no service
// varies is fixed in recursive_resolver.cc: the 800 ms wait for NS-name
// addresses and the 15 s overall budget of a client query. A profile is
// named by the resolvers::ServiceProfile that holds it.
#pragma once

#include "util/time.h"

namespace lazyeye::dns {

/// How the resolver learns the addresses of a delegated zone's name servers.
enum class NsQueryStrategy {
  /// AAAA query first, A immediately after; waits for both before contacting
  /// the child zone (Unbound, most open services).
  kAaaaThenA,
  /// A first, then AAAA (BIND, DNS.sb).
  kAThenAaaa,
  /// Contacts the child over IPv4 glue first; the AAAA query for the NS name
  /// is only sent afterwards (Google Public DNS).
  kAaaaAfterFirstUse,
  /// Sends either an A or a AAAA query for the NS name, never both,
  /// alternating between zones (Knot Resolver).
  kEitherOr,
  /// Uses glue only; never queries NS-name addresses explicitly.
  kGlueOnly,
};

const char* ns_query_strategy_name(NsQueryStrategy s);

struct ResolverProfile {
  // ---- NS address acquisition --------------------------------------------
  NsQueryStrategy ns_query_strategy = NsQueryStrategy::kAaaaThenA;
  /// Issue the NS-name A and AAAA queries in parallel rather than in order
  /// (DNS0.EU — makes the AAAA-vs-A delay unmeasurable, Table 3 footnote 1).
  bool parallel_ns_queries = false;

  // ---- Address family selection for iterative queries ---------------------
  /// Probability of choosing IPv6 when both families are available.
  /// 1.0 = strict IPv6 preference (BIND, OpenDNS); 0.0 = IPv4 only.
  double ipv6_probability = 0.5;
  /// Per-attempt timeout before the retry logic kicks in. This is the
  /// resolver-side analogue of the Happy Eyeballs CAD: the largest upstream
  /// IPv6 delay the resolver tolerates before abandoning IPv6.
  SimTime attempt_timeout = lazyeye::ms(400);
  /// Probability of retrying the same family after a timeout (Unbound: 0.44).
  double retry_same_family_prob = 0.0;
  /// Timeout multiplier applied on a same-family retry (Unbound's exponential
  /// backoff: 376 ms -> 1128 ms).
  double backoff_factor = 1.0;
  /// Maximum consecutive packets to one family before switching
  /// (Yandex sends up to 6 to IPv6).
  int max_packets_per_family = 1;
  /// Never switch families on retry; keep hitting the initially chosen
  /// family until giving up (DNS0.EU).
  bool stick_to_family = false;
  /// Total attempts across families before SERVFAIL.
  int max_total_attempts = 6;

  // ---- Capabilities --------------------------------------------------------
  /// False for services that cannot resolve IPv6-only delegations at all
  /// (Hurricane Electric, Lumen, Dyn, G-Core — Table 4).
  bool ipv6_transport_capable = true;
};

}  // namespace lazyeye::dns
