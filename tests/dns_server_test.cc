// Zone lookup semantics, authoritative server behaviour (qname-encoded
// delays, logs, referrals), and stub resolver behaviour (dual queries,
// failover, timeout).
#include <gtest/gtest.h>

#include "capture/capture.h"
#include "dns/auth_server.h"
#include "dns/stub_resolver.h"
#include "dns/zone.h"
#include "dns_fixtures.h"
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

// ----------------------------------------------------------------- zone ----

Zone::LookupRefs lookup(const Zone& zone, const DnsName& qname, RrType qtype) {
  Zone::LookupRefs refs;
  zone.lookup_into(qname, qtype, refs);
  return refs;
}

class ZoneTest : public ::testing::Test {
 protected:
  ZoneTest() : zone_{N("he.lab")} {
    zone_.add_a(N("www.he.lab"), V4("10.0.0.10"));
    zone_.add_a(N("www.he.lab"), V4("10.0.0.11"));
    zone_.add_aaaa(N("www.he.lab"), V6("2001:db8::10"));
    zone_.add(
        {N("alias.he.lab"), RrType::kCname, 60, CnameRdata{N("www.he.lab")}});
    zone_.add_ns(N("sub.he.lab"), N("ns1.sub.he.lab"));
    zone_.add(ResourceRecord::a(N("ns1.sub.he.lab"), V4("10.0.9.1")));
    zone_.add(ResourceRecord::aaaa(N("ns1.sub.he.lab"), V6("2001:db8:9::1")));
  }
  Zone zone_;
};

TEST_F(ZoneTest, AnswerReturnsAllRecordsOfType) {
  const auto r = lookup(zone_, N("www.he.lab"), RrType::kA);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kAnswer);
  EXPECT_EQ(r.records.size(), 2u);
}

TEST_F(ZoneTest, NoDataForExistingNameWrongType) {
  const auto r = lookup(zone_, N("www.he.lab"), RrType::kTxt);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kNoData);
  ASSERT_TRUE(r.soa);
  EXPECT_EQ(r.soa->type, RrType::kSoa);
}

TEST_F(ZoneTest, NxDomainForMissingName) {
  const auto r = lookup(zone_, N("missing.he.lab"), RrType::kA);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kNxDomain);
  ASSERT_TRUE(r.soa);
}

TEST_F(ZoneTest, EmptyNonTerminalIsNoData) {
  // "sub.he.lab" has NS; "he.lab" apex exists. A name that only exists as a
  // path component: add a deep record and query the middle.
  Zone z{N("he.lab")};
  z.add_a(N("a.b.he.lab"), V4("10.0.0.1"));
  const auto r = lookup(z, N("b.he.lab"), RrType::kA);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kNoData);
}

TEST_F(ZoneTest, CnameReturned) {
  const auto r = lookup(zone_, N("alias.he.lab"), RrType::kA);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kCname);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0]->type, RrType::kCname);
}

TEST_F(ZoneTest, CnameQueryForCnameTypeIsAnswer) {
  const auto r = lookup(zone_, N("alias.he.lab"), RrType::kCname);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kAnswer);
}

TEST_F(ZoneTest, DelegationWithGlue) {
  const auto r = lookup(zone_, N("www.sub.he.lab"), RrType::kA);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kDelegation);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0]->type, RrType::kNs);
  // Glue: both A and AAAA of ns1.sub.he.lab.
  EXPECT_EQ(r.additional.size(), 2u);
}

TEST_F(ZoneTest, DelegationAppliesToApexOfCut) {
  const auto r = lookup(zone_, N("sub.he.lab"), RrType::kA);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kDelegation);
}

TEST_F(ZoneTest, NotInZone) {
  const auto r = lookup(zone_, N("www.other.lab"), RrType::kA);
  EXPECT_EQ(r.kind, Zone::RcodeKind::kNotInZone);
}

TEST_F(ZoneTest, ApexNsIsNotDelegation) {
  Zone z{N("he.lab")};
  z.add_ns(N("he.lab"), N("ns1.he.lab"));
  z.add_a(N("www.he.lab"), V4("10.0.0.1"));
  EXPECT_EQ(lookup(z, N("www.he.lab"), RrType::kA).kind,
            Zone::RcodeKind::kAnswer);
  EXPECT_EQ(lookup(z, N("he.lab"), RrType::kNs).kind,
            Zone::RcodeKind::kAnswer);
}

TEST_F(ZoneTest, NsAddedBelowApexAfterLookupsMakesACut) {
  // Lookups in a zone with only an apex NS find no cut; an NS added below
  // the apex afterwards must still turn its subtree into a referral.
  Zone z{N("he.lab")};
  z.add_ns(N("he.lab"), N("ns1.he.lab"));
  z.add_a(N("www.sub.he.lab"), V4("10.0.0.1"));
  EXPECT_EQ(lookup(z, N("www.sub.he.lab"), RrType::kA).kind,
            Zone::RcodeKind::kAnswer);
  EXPECT_EQ(lookup(z, N("sub.he.lab"), RrType::kA).kind,
            Zone::RcodeKind::kNoData);

  z.add_ns(N("sub.he.lab"), N("ns1.sub.he.lab"));
  for (const char* qname : {"www.sub.he.lab", "sub.he.lab"}) {
    const auto r = lookup(z, N(qname), RrType::kA);
    EXPECT_EQ(r.kind, Zone::RcodeKind::kDelegation) << qname;
    ASSERT_EQ(r.records.size(), 1u) << qname;
    EXPECT_EQ(r.records[0]->type, RrType::kNs) << qname;
  }
  EXPECT_EQ(lookup(z, N("he.lab"), RrType::kNs).kind,
            Zone::RcodeKind::kAnswer);
}

TEST_F(ZoneTest, AddOutsideZoneThrows) {
  EXPECT_THROW(zone_.add_a(N("www.other.lab"), V4("10.0.0.1")),
               std::invalid_argument);
}

// ---------------------------------------------------------- auth server ----

/// Silences a server: every response is dropped after its query is logged.
void drop_every_response(const DnsMessage&, DnsMessage&, SimTime&,
                         ResponseDirectives& out) {
  out.drop = true;
}

struct AuthFixture : ::testing::Test {
  AuthFixture() : net{1}, server_host{net.add_host("auth")},
                  client_host{net.add_host("client")} {
    server_host.add_address(IpAddress::must_parse("10.0.0.53"));
    server_host.add_address(IpAddress::must_parse("2001:db8::53"));
    client_host.add_address(IpAddress::must_parse("10.0.0.2"));
    client_host.add_address(IpAddress::must_parse("2001:db8::2"));
    auth = std::make_unique<AuthServer>(server_host);
    Zone& zone = auth->add_zone(N("he.lab"));
    zone.add_a(N("www.he.lab"), V4("10.0.0.80"));
    zone.add_aaaa(N("www.he.lab"), V6("2001:db8::80"));
    // A wildcard-ish record used by delay tests (params are labels on top).
    zone.add_a(N("d250-aaaa.rd.he.lab"), V4("10.0.0.81"));
    zone.add_aaaa(N("d250-aaaa.rd.he.lab"), V6("2001:db8::81"));
  }

  /// Sends a raw query and records responses with timestamps.
  void send_query(const DnsName& qname, RrType type,
                  Family family = Family::kIpv4) {
    const std::uint16_t port = client_host.ephemeral_port();
    const auto src = *client_host.address(family);
    const auto dst = family == Family::kIpv4
                         ? IpAddress::must_parse("10.0.0.53")
                         : IpAddress::must_parse("2001:db8::53");
    client_host.udp_bind(port, [this](const simnet::Packet& p) {
      auto decoded = DnsMessage::decode(p.payload);
      ASSERT_TRUE(decoded.ok());
      responses.emplace_back(net.loop().now(), std::move(decoded).value());
    });
    const auto query = fixtures::query(next_id++, qname, type);
    client_host.udp_send({src, port}, {dst, 53},
                         simnet::Buffer::adopt(query.encode()));
  }

  simnet::Network net;
  simnet::Host& server_host;
  simnet::Host& client_host;
  std::unique_ptr<AuthServer> auth;
  std::vector<std::pair<SimTime, DnsMessage>> responses;
  std::uint16_t next_id = 100;
};

TEST_F(AuthFixture, AnswersAuthoritatively) {
  send_query(N("www.he.lab"), RrType::kA);
  net.loop().run();
  ASSERT_EQ(responses.size(), 1u);
  const DnsMessage& r = responses[0].second;
  EXPECT_TRUE(r.header.aa);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].address()->to_string(), "10.0.0.80");
}

TEST_F(AuthFixture, RefusesOutOfZone) {
  send_query(N("www.elsewhere.example"), RrType::kA);
  net.loop().run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].second.header.rcode, Rcode::kRefused);
}

TEST_F(AuthFixture, QnameEncodedDelayAppliesPerType) {
  send_query(N("d250-aaaa.rd.he.lab"), RrType::kAaaa);
  send_query(N("d250-aaaa.rd.he.lab"), RrType::kA);
  net.loop().run();
  ASSERT_EQ(responses.size(), 2u);
  // A response (no delay) arrives first; AAAA 250 ms later.
  EXPECT_EQ(responses[0].second.questions[0].type, RrType::kA);
  EXPECT_EQ(responses[1].second.questions[0].type, RrType::kAaaa);
  const SimTime delta = responses[1].first - responses[0].first;
  EXPECT_EQ(delta, ms(250));
}

TEST_F(AuthFixture, QueryLogRecordsFamilyAndType) {
  send_query(N("www.he.lab"), RrType::kA, Family::kIpv6);
  net.loop().run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, 2 * net.base_delay());
  ASSERT_EQ(auth->query_log().size(), 1u);
  EXPECT_EQ(auth->query_log()[0].family, Family::kIpv6);
  EXPECT_EQ(auth->query_log()[0].qtype, RrType::kA);
}

TEST_F(AuthFixture, UnresponsiveDropsButLogs) {
  auth->set_response_interposer(drop_every_response);
  send_query(N("www.he.lab"), RrType::kA);
  net.loop().run();
  EXPECT_TRUE(responses.empty());
  EXPECT_EQ(auth->query_log().size(), 1u);
}

TEST_F(AuthFixture, GarbagePayloadIgnored) {
  capture::PacketCapture server_wire{server_host};
  const auto src = *client_host.address(Family::kIpv4);
  client_host.udp_send({src, 4444}, {IpAddress::must_parse("10.0.0.53"), 53},
                       simnet::Buffer::adopt({0xde, 0xad}));
  net.loop().run();
  EXPECT_TRUE(responses.empty());
  // The datagram reached the server, which sent nothing back.
  ASSERT_EQ(server_wire.size(), 1u);
  EXPECT_FALSE(server_wire.packets()[0].egress());
  EXPECT_EQ(server_wire.packets()[0].packet.dst.port, 53);
  EXPECT_EQ(server_wire.packets()[0].packet.payload.size(), 2u);
  EXPECT_TRUE(auth->query_log().empty());
}

TEST_F(AuthFixture, CnameChasedWithinZone) {
  Zone& zone = auth->add_zone(N("alias.lab"));
  zone.add({N("www.alias.lab"), RrType::kCname, 60,
            CnameRdata{N("target.alias.lab")}});
  zone.add_a(N("target.alias.lab"), V4("10.0.0.90"));
  send_query(N("www.alias.lab"), RrType::kA);
  net.loop().run();
  ASSERT_EQ(responses.size(), 1u);
  const auto& r = responses[0].second;
  EXPECT_EQ(r.answers.size(), 2u);  // CNAME + A
  std::vector<IpAddress> addrs;
  r.addresses_for_into(N("www.alias.lab"), RrType::kA, addrs);
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0].to_string(), "10.0.0.90");
}

TEST_F(AuthFixture, ReferralForDelegatedChild) {
  Zone& parent = auth->add_zone(N("parent.lab"));
  parent.add_ns(N("child.parent.lab"), N("ns1.child.parent.lab"));
  parent.add(ResourceRecord::a(N("ns1.child.parent.lab"), V4("10.0.7.1")));
  send_query(N("www.child.parent.lab"), RrType::kA);
  net.loop().run();
  ASSERT_EQ(responses.size(), 1u);
  const auto& r = responses[0].second;
  EXPECT_FALSE(r.header.aa);
  ASSERT_EQ(r.authorities.size(), 1u);
  EXPECT_EQ(r.authorities[0].type, RrType::kNs);
  ASSERT_EQ(r.additionals.size(), 1u);  // glue
}

TEST_F(AuthFixture, MostSpecificZoneWins) {
  Zone& child = auth->add_zone(N("sub.he.lab"));
  child.add_a(N("www.sub.he.lab"), V4("10.0.8.8"));
  send_query(N("www.sub.he.lab"), RrType::kA);
  net.loop().run();
  ASSERT_EQ(responses.size(), 1u);
  std::vector<IpAddress> addrs;
  responses[0].second.addresses_for_into(N("www.sub.he.lab"), RrType::kA,
                                         addrs);
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0].to_string(), "10.0.8.8");
}

/// Lower-case hex of each response payload the server sent, in send order.
std::vector<std::string> response_wire_hex(
    const capture::PacketCapture& server_wire) {
  std::vector<std::string> out;
  for (const auto& cp : server_wire.packets()) {
    if (!cp.egress()) continue;
    std::string hex;
    for (const std::uint8_t b : cp.packet.payload) {
      hex += "0123456789abcdef"[b >> 4];
      hex += "0123456789abcdef"[b & 0xf];
    }
    out.push_back(std::move(hex));
  }
  return out;
}

TEST_F(AuthFixture, SoaAnswersAndNegativeAuthoritiesArePinnedOnTheWire) {
  // The zone SOA is the answer to an apex SOA query and the authority of
  // every negative answer. An empty zone's apex exists: NODATA, not
  // NXDOMAIN.
  auth->add_zone(N("empty.lab"));
  capture::PacketCapture server_wire{server_host};
  send_query(N("he.lab"), RrType::kSoa);           // apex SOA answer
  send_query(N("he.lab"), RrType::kA);             // apex NODATA
  send_query(N("missing.he.lab"), RrType::kAaaa);  // NXDOMAIN below the apex
  send_query(N("empty.lab"), RrType::kA);          // empty zone's apex NODATA
  net.loop().run();
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].second.answers.size(), 1u);
  EXPECT_EQ(responses[1].second.header.rcode, Rcode::kNoError);
  EXPECT_EQ(responses[2].second.header.rcode, Rcode::kNxDomain);
  EXPECT_EQ(responses[3].second.header.rcode, Rcode::kNoError);
  const std::vector<std::string> expected{
      "006484000001000100000000026865036c61620000060001c00c000600010000"
      "003c0027036e7331c00c0a686f73746d6173746572c00c0000000100001c2000"
      "000384001275000000003c",
      "006584000001000000010000026865036c61620000010001c00c000600010000"
      "003c0027036e7331c00c0a686f73746d6173746572c00c0000000100001c2000"
      "000384001275000000003c",
      "006684030001000000010000076d697373696e67026865036c616200001c0001"
      "c014000600010000003c0027036e7331c0140a686f73746d6173746572c01400"
      "00000100001c2000000384001275000000003c",
      "00678400000100000001000005656d707479036c61620000010001c00c000600"
      "010000003c0027036e7331c00c0a686f73746d6173746572c00c000000010000"
      "1c2000000384001275000000003c",
  };
  EXPECT_EQ(response_wire_hex(server_wire), expected);
}

// ---------------------------------------------------------- stub resolver --

struct StubFixture : AuthFixture {
  StubFixture() {
    StubOptions options;
    options.servers = {{IpAddress::must_parse("10.0.0.53"), 53}};
    options.timeout = lazyeye::sec(5);
    stub = std::make_unique<StubResolver>(client_host, options);
  }
  std::unique_ptr<StubResolver> stub;
};

TEST_F(StubFixture, DualEmitsPerTypeInArrivalOrder) {
  std::vector<RrType> arrival_order;
  std::vector<IpAddress> a_records;
  StubResolver::DualHandlers handlers;
  handlers.on_records = [&](RrType type, const std::vector<IpAddress>& addrs,
                            SimTime) {
    arrival_order.push_back(type);
    EXPECT_FALSE(addrs.empty());
    if (type == RrType::kA) a_records = addrs;
  };
  stub->resolve_dual(N("www.he.lab"), handlers);
  net.loop().run();
  ASSERT_EQ(arrival_order.size(), 2u);
  // No delays: AAAA was sent first, so it arrives first.
  EXPECT_EQ(arrival_order[0], RrType::kAaaa);
  EXPECT_EQ(arrival_order[1], RrType::kA);
  ASSERT_EQ(a_records.size(), 1u);
  EXPECT_EQ(a_records[0].to_string(), "10.0.0.80");
}

TEST_F(StubFixture, DelayedAaaaArrivesSecond) {
  std::vector<std::pair<RrType, SimTime>> arrivals;
  StubResolver::DualHandlers handlers;
  handlers.on_records = [&](RrType type, const std::vector<IpAddress>&,
                            SimTime) {
    arrivals.emplace_back(type, net.loop().now());
  };
  stub->resolve_dual(N("d250-aaaa.rd.he.lab"), handlers);
  net.loop().run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].first, RrType::kA);
  EXPECT_EQ(arrivals[1].first, RrType::kAaaa);
  EXPECT_EQ(arrivals[1].second - arrivals[0].second, ms(250));
}

TEST_F(StubFixture, TimeoutReportedPerType) {
  auth->set_response_interposer(drop_every_response);
  StubOptions options;
  options.servers = {{IpAddress::must_parse("10.0.0.53"), 53}};
  options.timeout = ms(500);
  options.attempts_per_server = 1;
  StubResolver fast_stub{client_host, options};

  int errors = 0;
  StubResolver::DualHandlers handlers;
  handlers.on_error = [&](RrType, const std::string& error) {
    EXPECT_EQ(error, "all servers failed");
    ++errors;
  };
  fast_stub.resolve_dual(N("www.he.lab"), handlers);
  net.loop().run();
  EXPECT_EQ(errors, 2);
}

TEST_F(StubFixture, FailoverToSecondServer) {
  // First server does not exist (blackhole), second is the real one.
  StubOptions options;
  options.servers = {{IpAddress::must_parse("10.0.0.99"), 53},
                     {IpAddress::must_parse("10.0.0.53"), 53}};
  options.timeout = ms(300);
  options.attempts_per_server = 1;
  StubResolver failover_stub{client_host, options};

  int answered = 0;
  StubResolver::DualHandlers handlers;
  handlers.on_records = [&](RrType, const std::vector<IpAddress>& addrs,
                            SimTime rtt) {
    EXPECT_FALSE(addrs.empty());
    EXPECT_GE(rtt, SimTime{0});
    ++answered;
  };
  handlers.on_error = [&](RrType, const std::string& error) {
    ADD_FAILURE() << error;
  };
  failover_stub.resolve_dual(N("www.he.lab"), handlers);
  net.loop().run();
  EXPECT_EQ(answered, 2);  // AAAA and A, each failed over on its own
  // The failed first attempt should put us past 300 ms.
  EXPECT_GE(net.loop().now(), ms(300));
}

TEST_F(StubFixture, CancelSuppressesCallbacks) {
  int calls = 0;
  StubResolver::DualHandlers handlers;
  handlers.on_records = [&](RrType, const std::vector<IpAddress>&, SimTime) {
    ++calls;
  };
  handlers.on_error = [&](RrType, const std::string&) { ++calls; };
  const auto handle = stub->resolve_dual(N("www.he.lab"), handlers);
  stub->cancel(handle);
  net.loop().run();
  EXPECT_EQ(calls, 0);
}

TEST_F(StubFixture, NxdomainYieldsEmptyRecords) {
  std::vector<std::size_t> sizes;
  StubResolver::DualHandlers handlers;
  handlers.on_records = [&](RrType, const std::vector<IpAddress>& addrs,
                            SimTime) {
    sizes.push_back(addrs.size());
  };
  stub->resolve_dual(N("missing.he.lab"), handlers);
  net.loop().run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 0u);
  EXPECT_EQ(sizes[1], 0u);
}

}  // namespace
}  // namespace lazyeye::dns
