// Recursive resolver engine tests against a small delegation tree:
//   . (root)  ->  lab (TLD)  ->  z1.lab (measurement zone)
// Covers the NS-query strategies, family preference/fallback/backoff, and
// the failure modes Table 3/4 of the paper rely on. The engine keeps no log
// of its own, so it is observed only on the wire: through the auth servers'
// query logs and a packet capture of the resolver host.
#include <gtest/gtest.h>

#include <memory>

#include "capture/capture.h"
#include "dns/auth_server.h"
#include "dns/recursive_resolver.h"
#include "simnet/network.h"

namespace lazyeye::dns {
namespace {

using simnet::Family;
using simnet::IpAddress;
using simnet::Ipv4Address;
using simnet::Ipv6Address;

DnsName N(const char* s) { return DnsName::must_parse(s); }
Ipv4Address V4(const char* s) { return *Ipv4Address::parse(s); }
Ipv6Address V6(const char* s) { return *Ipv6Address::parse(s); }

struct LabFixture : ::testing::Test {
  // auth_v6: whether the measurement auth host answers on IPv6.
  explicit LabFixture(bool auth_v6 = true)
      : net{7},
        root_host{net.add_host("root")},
        tld_host{net.add_host("tld")},
        auth_host{net.add_host("auth")},
        resolver_host{net.add_host("resolver")} {
    root_host.add_address(IpAddress::must_parse("10.0.0.1"));
    root_host.add_address(IpAddress::must_parse("2001:db8::1"));
    tld_host.add_address(IpAddress::must_parse("10.0.0.2"));
    tld_host.add_address(IpAddress::must_parse("2001:db8::2"));
    auth_host.add_address(IpAddress::must_parse("10.0.1.1"));
    if (auth_v6) {
      auth_host.add_address(IpAddress::must_parse("2001:db8:1::1"));
    }
    resolver_host.add_address(IpAddress::must_parse("10.0.0.10"));
    resolver_host.add_address(IpAddress::must_parse("2001:db8::10"));

    root = std::make_unique<AuthServer>(root_host);
    Zone& root_zone = root->add_zone(DnsName{});
    root_zone.add_ns(N("lab"), N("ns.lab"));
    root_zone.add(ResourceRecord::a(N("ns.lab"), V4("10.0.0.2")));
    root_zone.add(ResourceRecord::aaaa(N("ns.lab"), V6("2001:db8::2")));

    tld = std::make_unique<AuthServer>(tld_host);
    Zone& lab_zone = tld->add_zone(N("lab"));
    lab_zone.add_ns(N("lab"), N("ns.lab"));
    lab_zone.add_a(N("ns.lab"), V4("10.0.0.2"));
    lab_zone.add_aaaa(N("ns.lab"), V6("2001:db8::2"));
    lab_zone.add_ns(N("z1.lab"), N("ns1.z1.lab"));
    lab_zone.add(ResourceRecord::a(N("ns1.z1.lab"), V4("10.0.1.1")));
    lab_zone.add(ResourceRecord::aaaa(N("ns1.z1.lab"), V6("2001:db8:1::1")));

    auth = std::make_unique<AuthServer>(auth_host);
    Zone& z1 = auth->add_zone(N("z1.lab"));
    z1.add_ns(N("z1.lab"), N("ns1.z1.lab"));
    z1.add_a(N("ns1.z1.lab"), V4("10.0.1.1"));
    z1.add_aaaa(N("ns1.z1.lab"), V6("2001:db8:1::1"));
    z1.add_a(N("www.z1.lab"), V4("10.0.1.80"));
    z1.add_aaaa(N("www.z1.lab"), V6("2001:db8:1::80"));
  }

  RecursiveResolver make_resolver(ResolverProfile profile) {
    return RecursiveResolver{
        resolver_host, std::move(profile),
        {IpAddress::must_parse("10.0.0.1"),
         IpAddress::must_parse("2001:db8::1")}};
  }

  /// Runs one query to completion; returns the outcome.
  QueryOutcome run_query(RecursiveResolver& resolver, const DnsName& qname,
                         RrType qtype = RrType::kA) {
    QueryOutcome result;
    bool finished = false;
    resolver.resolve(qname, qtype, [&](const QueryOutcome& out) {
      result = out;
      finished = true;
    });
    net.loop().run();
    EXPECT_TRUE(finished);
    return result;
  }

  /// Queries the resolver host sent to `server` port 53. Its egress tap
  /// fires before netem may drop a packet, so dropped queries count too.
  static int queries_to(const capture::PacketCapture& wire,
                        const IpAddress& server) {
    int sent = 0;
    for (const capture::CapturedPacket& c : wire.packets()) {
      if (c.egress() && c.packet.dst.addr == server &&
          c.packet.dst.port == 53) {
        ++sent;
      }
    }
    return sent;
  }

  simnet::Network net;
  simnet::Host& root_host;
  simnet::Host& tld_host;
  simnet::Host& auth_host;
  simnet::Host& resolver_host;
  std::unique_ptr<AuthServer> root;
  std::unique_ptr<AuthServer> tld;
  std::unique_ptr<AuthServer> auth;
};

ResolverProfile v4_only_profile() {
  ResolverProfile p;
  p.ipv6_probability = 0.0;
  p.ns_query_strategy = NsQueryStrategy::kGlueOnly;
  return p;
}

TEST_F(LabFixture, ResolvesThroughDelegationChain) {
  auto resolver = make_resolver(v4_only_profile());
  const auto out = run_query(resolver, N("www.z1.lab"));
  ASSERT_TRUE(out.ok) << out.error;
  std::vector<IpAddress> addrs;
  out.response.addresses_for_into(N("www.z1.lab"), RrType::kA, addrs);
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0].to_string(), "10.0.1.80");
  // Root, TLD and auth each saw exactly one (main) query.
  EXPECT_EQ(root->query_log().size(), 1u);
  EXPECT_EQ(tld->query_log().size(), 1u);
  EXPECT_EQ(auth->query_log().size(), 1u);
}

TEST_F(LabFixture, AaaaQueryType) {
  auto resolver = make_resolver(v4_only_profile());
  const auto out = run_query(resolver, N("www.z1.lab"), RrType::kAaaa);
  ASSERT_TRUE(out.ok);
  std::vector<IpAddress> addrs;
  out.response.addresses_for_into(N("www.z1.lab"), RrType::kAaaa, addrs);
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0].to_string(), "2001:db8:1::80");
}

TEST_F(LabFixture, NxDomainPropagates) {
  auto resolver = make_resolver(v4_only_profile());
  const auto out = run_query(resolver, N("missing.z1.lab"));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.rcode, Rcode::kNxDomain);
}

TEST_F(LabFixture, AaaaThenAStrategyOrderAtAuth) {
  ResolverProfile p;
  p.ns_query_strategy = NsQueryStrategy::kAaaaThenA;
  p.ipv6_probability = 0.0;  // main queries over v4 for determinism
  auto resolver = make_resolver(p);
  const auto out = run_query(resolver, N("www.z1.lab"));
  ASSERT_TRUE(out.ok) << out.error;

  // Auth log: AAAA ns1, A ns1 (NS acquisition), then A www (main query).
  const auto& log = auth->query_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].qtype, RrType::kAaaa);
  EXPECT_EQ(log[0].qname, N("ns1.z1.lab"));
  EXPECT_EQ(log[1].qtype, RrType::kA);
  EXPECT_EQ(log[1].qname, N("ns1.z1.lab"));
  EXPECT_EQ(log[2].qname, N("www.z1.lab"));
  // AAAA was requested before the main query reached the auth server.
  EXPECT_LT(log[0].time, log[2].time);
}

TEST_F(LabFixture, AThenAaaaStrategyOrderAtAuth) {
  ResolverProfile p;
  p.ns_query_strategy = NsQueryStrategy::kAThenAaaa;
  p.ipv6_probability = 0.0;
  auto resolver = make_resolver(p);
  ASSERT_TRUE(run_query(resolver, N("www.z1.lab")).ok);
  const auto& log = auth->query_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].qtype, RrType::kA);
  EXPECT_EQ(log[1].qtype, RrType::kAaaa);
}

TEST_F(LabFixture, EitherOrStrategySendsOneTypeOnly) {
  ResolverProfile p;
  p.ns_query_strategy = NsQueryStrategy::kEitherOr;
  p.ipv6_probability = 0.0;
  auto resolver = make_resolver(p);
  ASSERT_TRUE(run_query(resolver, N("www.z1.lab")).ok);
  const auto& log = auth->query_log();
  // One NS-name query + the main query.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].qname, N("ns1.z1.lab"));
  EXPECT_EQ(log[1].qname, N("www.z1.lab"));
}

TEST_F(LabFixture, DeferredAaaaAfterFirstUse) {
  ResolverProfile p;
  p.ns_query_strategy = NsQueryStrategy::kAaaaAfterFirstUse;
  p.ipv6_probability = 0.0;
  auto resolver = make_resolver(p);
  ASSERT_TRUE(run_query(resolver, N("www.z1.lab")).ok);
  const auto& log = auth->query_log();
  ASSERT_EQ(log.size(), 2u);
  // Main query first, AAAA for the NS name afterwards.
  EXPECT_EQ(log[0].qname, N("www.z1.lab"));
  EXPECT_EQ(log[1].qname, N("ns1.z1.lab"));
  EXPECT_EQ(log[1].qtype, RrType::kAaaa);
  EXPECT_LT(log[0].time, log[1].time);
}

TEST_F(LabFixture, StrictIpv6PreferenceUsesV6Transport) {
  ResolverProfile p;
  p.ns_query_strategy = NsQueryStrategy::kGlueOnly;
  p.ipv6_probability = 1.0;
  auto resolver = make_resolver(p);
  ASSERT_TRUE(run_query(resolver, N("www.z1.lab")).ok);
  ASSERT_EQ(auth->query_log().size(), 1u);
  EXPECT_EQ(auth->query_log()[0].family, Family::kIpv6);
}

TEST_F(LabFixture, FallsBackToV4WhenV6TimesOut) {
  // Drop all IPv6 traffic to the auth server.
  net.qdisc().add_rule(
      simnet::PacketFilter::to_address(IpAddress::must_parse("2001:db8:1::1")),
      simnet::NetemSpec{SimTime{0}, SimTime{0}, 1.0}, "drop v6 to auth");

  ResolverProfile p;
  p.ns_query_strategy = NsQueryStrategy::kGlueOnly;
  p.ipv6_probability = 1.0;
  p.attempt_timeout = ms(800);
  p.max_packets_per_family = 1;
  auto resolver = make_resolver(p);
  capture::PacketCapture wire{resolver_host};
  const auto out = run_query(resolver, N("www.z1.lab"));
  ASSERT_TRUE(out.ok) << out.error;
  // One v6 query to the auth server (dropped), then the switch to v4.
  EXPECT_EQ(queries_to(wire, IpAddress::must_parse("2001:db8:1::1")), 1);
  EXPECT_EQ(queries_to(wire, IpAddress::must_parse("10.0.1.1")), 1);
  // One v4 query eventually reached the auth server.
  ASSERT_EQ(auth->query_log().size(), 1u);
  EXPECT_EQ(auth->query_log()[0].family, Family::kIpv4);
  // The switch happened only after the 800 ms attempt timeout.
  EXPECT_GE(auth->query_log()[0].time, ms(800));
}

TEST_F(LabFixture, RetriesSameFamilyWithBackoff) {
  net.qdisc().add_rule(
      simnet::PacketFilter::to_address(IpAddress::must_parse("2001:db8:1::1")),
      simnet::NetemSpec{SimTime{0}, SimTime{0}, 1.0}, "drop v6 to auth");

  ResolverProfile p;  // Unbound-style
  p.ns_query_strategy = NsQueryStrategy::kGlueOnly;
  p.ipv6_probability = 1.0;
  p.attempt_timeout = ms(376);
  p.max_packets_per_family = 2;
  p.retry_same_family_prob = 1.0;  // force the retry path
  p.backoff_factor = 3.0;
  auto resolver = make_resolver(p);
  capture::PacketCapture wire{resolver_host};
  const auto out = run_query(resolver, N("www.z1.lab"));
  ASSERT_TRUE(out.ok) << out.error;

  // Two v6 attempts towards the auth server: 376 ms + 1128 ms, then the v4
  // fallback. (Filter by target address: the same qname is also sent to the
  // root/TLD servers on the way down.)
  EXPECT_EQ(queries_to(wire, IpAddress::must_parse("2001:db8:1::1")), 2);
  EXPECT_GE(net.loop().now(), ms(376) + ms(1128));
}

TEST_F(LabFixture, StickToFamilyFailsWithoutSwitching) {
  net.qdisc().add_rule(
      simnet::PacketFilter::to_address(IpAddress::must_parse("2001:db8:1::1")),
      simnet::NetemSpec{SimTime{0}, SimTime{0}, 1.0}, "drop v6 to auth");

  ResolverProfile p;  // DNS0.EU-style
  p.ns_query_strategy = NsQueryStrategy::kGlueOnly;
  p.ipv6_probability = 1.0;
  p.attempt_timeout = ms(200);
  p.stick_to_family = true;
  p.max_total_attempts = 3;
  auto resolver = make_resolver(p);
  const auto out = run_query(resolver, N("www.z1.lab"));
  EXPECT_FALSE(out.ok);
  // It never reached the auth server over IPv4.
  for (const auto& entry : auth->query_log()) {
    EXPECT_NE(entry.family, Family::kIpv4);
  }
}

TEST_F(LabFixture, MultiplePacketsPerFamilyBeforeSwitch) {
  net.qdisc().add_rule(
      simnet::PacketFilter::to_address(IpAddress::must_parse("2001:db8:1::1")),
      simnet::NetemSpec{SimTime{0}, SimTime{0}, 1.0}, "drop v6 to auth");

  ResolverProfile p;  // Yandex-style
  p.ns_query_strategy = NsQueryStrategy::kGlueOnly;
  p.ipv6_probability = 1.0;
  p.attempt_timeout = ms(300);
  p.max_packets_per_family = 6;
  p.retry_same_family_prob = 1.0;
  p.max_total_attempts = 8;
  auto resolver = make_resolver(p);
  capture::PacketCapture wire{resolver_host};
  const auto out = run_query(resolver, N("www.z1.lab"));
  ASSERT_TRUE(out.ok) << out.error;

  EXPECT_EQ(queries_to(wire, IpAddress::must_parse("2001:db8:1::1")), 6);
}

struct V6OnlyLabFixture : LabFixture {
  V6OnlyLabFixture() : LabFixture() {
    // Rebuild the z1 delegation as IPv6-only: replace glue and zone data.
    // (Destroy first: the old server must release port 53 before the new
    // one binds it.)
    tld.reset();
    auth.reset();
    tld = std::make_unique<AuthServer>(tld_host);
    Zone& lab_zone = tld->add_zone(N("lab"));
    lab_zone.add_ns(N("lab"), N("ns.lab"));
    lab_zone.add_a(N("ns.lab"), V4("10.0.0.2"));
    lab_zone.add_ns(N("z6.lab"), N("ns1.z6.lab"));
    lab_zone.add(ResourceRecord::aaaa(N("ns1.z6.lab"), V6("2001:db8:1::1")));

    auth = std::make_unique<AuthServer>(auth_host);
    Zone& z6 = auth->add_zone(N("z6.lab"));
    z6.add_ns(N("z6.lab"), N("ns1.z6.lab"));
    z6.add_aaaa(N("ns1.z6.lab"), V6("2001:db8:1::1"));
    z6.add_a(N("www.z6.lab"), V4("10.0.1.80"));
  }
};

TEST_F(V6OnlyLabFixture, Ipv6CapableResolvesV6OnlyDelegation) {
  ResolverProfile p;
  p.ns_query_strategy = NsQueryStrategy::kGlueOnly;
  p.ipv6_probability = 0.5;
  auto resolver = make_resolver(p);
  const auto out = run_query(resolver, N("www.z6.lab"));
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(auth->query_log().size(), 1u);
  EXPECT_EQ(auth->query_log()[0].family, Family::kIpv6);
}

TEST_F(V6OnlyLabFixture, NonCapableResolverFailsV6OnlyDelegation) {
  // Hurricane Electric / Lumen / Dyn / G-Core behaviour (Table 4).
  ResolverProfile p;
  p.ns_query_strategy = NsQueryStrategy::kGlueOnly;
  p.ipv6_transport_capable = false;
  p.max_total_attempts = 2;
  auto resolver = make_resolver(p);
  const auto out = run_query(resolver, N("www.z6.lab"));
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(auth->query_log().empty());
  // It gives up by itself once the referral leaves it no server it can
  // reach, within a millisecond, not at the fixed 15 s overall budget.
  EXPECT_EQ(out.error, "no usable name server address");
  EXPECT_LT(net.loop().now(), lazyeye::ms(1));
}

TEST_F(LabFixture, OverallTimeoutFires) {
  // The root answers nothing: the resolver can never start.
  root->set_response_interposer(
      [](const DnsMessage&, DnsMessage&, SimTime&, ResponseDirectives& out) {
        out.drop = true;
      });
  ResolverProfile p = v4_only_profile();
  p.attempt_timeout = lazyeye::sec(2);
  p.max_total_attempts = 100;
  p.stick_to_family = true;
  auto resolver = make_resolver(p);
  const auto out = run_query(resolver, N("www.z1.lab"));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, "overall timeout");
  // resolve() started at t = 0, so the fixed 15 s budget expires at exactly
  // 15 s, long before 100 two-second attempts could run out.
  EXPECT_EQ(net.loop().now(), lazyeye::sec(15));
}

}  // namespace
}  // namespace lazyeye::dns
