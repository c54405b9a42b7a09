#include "resolvers/service_profiles.h"

namespace lazyeye::resolvers {

const char* aaaa_order_symbol(AaaaOrderClass c) {
  switch (c) {
    case AaaaOrderClass::kBeforeA: return "AAAA before A";
    case AaaaOrderClass::kAfterA: return "AAAA after A";
    case AaaaOrderClass::kAfterAuthQuery: return "AAAA after auth query";
    case AaaaOrderClass::kEitherOr: return "either AAAA or A";
  }
  return "?";
}

namespace {

/// Convenience builder for the common open-service shape: AAAA-first NS
/// queries, probabilistic IPv6 preference, fixed per-attempt timeout, a
/// bounded number of same-family packets before switching to IPv4.
ServiceProfile open_service(const std::string& name, double ipv6_share,
                            std::optional<SimTime> max_delay,
                            std::optional<int> ipv6_packets, int v4_addrs,
                            int v6_addrs) {
  ServiceProfile p;
  p.service = name;
  p.engine.ns_query_strategy = dns::NsQueryStrategy::kAaaaThenA;
  p.engine.ipv6_probability = ipv6_share;
  if (max_delay) p.engine.attempt_timeout = *max_delay;
  if (ipv6_packets) {
    p.engine.max_packets_per_family = *ipv6_packets;
    p.engine.retry_same_family_prob = *ipv6_packets > 1 ? 1.0 : 0.0;
    // Leave room for the IPv4 fallback after the same-family retries.
    p.engine.max_total_attempts = *ipv6_packets + 4;
  }
  p.ipv4_addresses = v4_addrs;
  p.ipv6_addresses = v6_addrs;
  p.expected_aaaa_order = AaaaOrderClass::kBeforeA;
  p.expected_ipv6_share = ipv6_share;
  p.expected_max_delay = max_delay;
  p.expected_ipv6_packets = ipv6_packets;
  return p;
}

}  // namespace

std::vector<ServiceProfile> local_software_profiles() {
  std::vector<ServiceProfile> out;

  {
    // BIND 9: classic HE-style strict IPv6 preference, CAD 800 ms, one
    // IPv6 packet, consistently falls back to IPv4; queries A before AAAA.
    ServiceProfile bind;
    bind.service = "BIND";
    bind.local_software = true;
    bind.engine.ns_query_strategy = dns::NsQueryStrategy::kAThenAaaa;
    bind.engine.ipv6_probability = 1.0;
    bind.engine.attempt_timeout = lazyeye::ms(800);
    bind.engine.max_packets_per_family = 1;
    bind.expected_aaaa_order = AaaaOrderClass::kAfterA;
    bind.expected_ipv6_share = 1.0;
    bind.expected_max_delay = lazyeye::ms(800);
    bind.expected_ipv6_packets = 1;
    out.push_back(std::move(bind));
  }
  {
    // Unbound: AAAA first, 43.8 % IPv6, 376 ms timeout, retries IPv6 in
    // 44 % of cases with exponential backoff to 1128 ms (2 packets).
    ServiceProfile unbound;
    unbound.service = "Unbound";
    unbound.local_software = true;
    unbound.engine.ns_query_strategy = dns::NsQueryStrategy::kAaaaThenA;
    unbound.engine.ipv6_probability = 0.438;
    unbound.engine.attempt_timeout = lazyeye::ms(376);
    unbound.engine.max_packets_per_family = 2;
    unbound.engine.retry_same_family_prob = 0.44;
    unbound.engine.backoff_factor = 3.0;  // 376 ms -> 1128 ms
    unbound.expected_aaaa_order = AaaaOrderClass::kBeforeA;
    unbound.expected_ipv6_share = 0.438;
    unbound.expected_max_delay = lazyeye::ms(376);
    unbound.expected_ipv6_packets = 2;
    out.push_back(std::move(unbound));
  }
  {
    // Knot Resolver: sends either A or AAAA for NS names (never both),
    // 27.9 % IPv6, 400 ms, 2 packets, consistent IPv4 fallback.
    ServiceProfile knot;
    knot.service = "Knot Resolver";
    knot.local_software = true;
    knot.engine.ns_query_strategy = dns::NsQueryStrategy::kEitherOr;
    knot.engine.ipv6_probability = 0.279;
    knot.engine.attempt_timeout = lazyeye::ms(400);
    knot.engine.max_packets_per_family = 2;
    knot.engine.retry_same_family_prob = 1.0;
    knot.expected_aaaa_order = AaaaOrderClass::kEitherOr;
    knot.expected_ipv6_share = 0.279;
    knot.expected_max_delay = lazyeye::ms(400);
    knot.expected_ipv6_packets = 2;
    out.push_back(std::move(knot));
  }
  return out;
}

std::vector<ServiceProfile> open_service_profiles() {
  std::vector<ServiceProfile> out;

  {
    // DNS.sb: queries A first; never used IPv6 towards the auth servers.
    ServiceProfile p = open_service("DNS.sb", 0.0, std::nullopt, std::nullopt,
                                    2, 2);
    p.engine.ns_query_strategy = dns::NsQueryStrategy::kAThenAaaa;
    p.expected_aaaa_order = AaaaOrderClass::kAfterA;
    out.push_back(std::move(p));
  }
  {
    // Google Public DNS: no AAAA query before contacting the auth server;
    // 0 % IPv6 usage.
    ServiceProfile p = open_service("Google P. DNS", 0.0, std::nullopt,
                                    std::nullopt, 2, 2);
    p.engine.ns_query_strategy = dns::NsQueryStrategy::kAaaaAfterFirstUse;
    p.expected_aaaa_order = AaaaOrderClass::kAfterAuthQuery;
    out.push_back(std::move(p));
  }
  {
    // DNS0.EU: parallel A/AAAA NS queries (delay unmeasurable, Table 3
    // footnote 1); sticks to the initially chosen IP version and fails.
    ServiceProfile p = open_service("DNS0.EU", 0.095, std::nullopt, {2}, 2, 2);
    p.engine.parallel_ns_queries = true;
    p.engine.stick_to_family = true;
    // "Sticks to the IP version initially chosen and fails at some point"
    // (§5.3) — after the two observed packets.
    p.engine.max_total_attempts = 2;
    out.push_back(std::move(p));
  }
  out.push_back(open_service("NextDNS", 0.089, lazyeye::ms(200), {1}, 2, 2));
  out.push_back(open_service("Quad 101", 0.10, lazyeye::ms(400), {1}, 2, 2));
  {
    // 114DNS: IPv4-only resolver addresses, but the resolution path is
    // IPv6-capable (a forwarder per App. C).
    out.push_back(open_service("114DNS", 0.111, lazyeye::ms(600), {1}, 2, 0));
  }
  out.push_back(open_service("Cloudflare", 0.111, lazyeye::ms(500), {2}, 2, 2));
  out.push_back(
      open_service("Verisign P. DNS", 0.153, lazyeye::ms(250), {1}, 2, 2));
  out.push_back(open_service("Yandex", 0.174, lazyeye::ms(300), {6}, 2, 2));
  out.push_back(open_service("H-MSK-IX", 0.205, lazyeye::ms(600), {2}, 2, 2));
  out.push_back(open_service("MSK-IX", 0.221, lazyeye::ms(600), {2}, 2, 2));
  out.push_back(open_service("Quad9 DNS", 0.342, lazyeye::ms(1250), {2}, 6, 6));
  {
    // OpenDNS: textbook Happy Eyeballs — always IPv6 first, 50 ms fallback.
    out.push_back(open_service("OpenDNS", 1.0, lazyeye::ms(50), {1}, 6, 6));
  }

  // Services that cannot resolve IPv6-only delegations (Table 4).
  auto incapable = [](const std::string& name, int v4, int v6) {
    ServiceProfile p;
    p.service = name;
    p.engine.ns_query_strategy = dns::NsQueryStrategy::kGlueOnly;
    p.engine.ipv6_probability = 0.0;
    p.engine.ipv6_transport_capable = false;
    p.ipv4_addresses = v4;
    p.ipv6_addresses = v6;
    p.ipv6_resolution_capable = false;
    return p;
  };
  out.push_back(incapable("G-Core", 2, 2));
  out.push_back(incapable("DYN", 2, 0));
  out.push_back(incapable("Lumen (Level3)", 4, 0));
  out.push_back(incapable("HE", 4, 4));
  return out;
}

std::vector<ServiceProfile> all_service_profiles() {
  auto out = local_software_profiles();
  for (auto& p : open_service_profiles()) out.push_back(std::move(p));
  return out;
}

std::optional<ServiceProfile> find_service_profile(const std::string& name) {
  for (const auto& p : all_service_profiles()) {
    if (p.service == name) return p;
  }
  return std::nullopt;
}

}  // namespace lazyeye::resolvers
