// Packet capture + analysis tests: the paper's inference rules (CAD from
// first-SYN gap, established family, attempt sequences, DNS timings).
#include <gtest/gtest.h>

#include "capture/analysis.h"
#include "capture/capture.h"
#include "dns/auth_server.h"
#include "dns/stub_resolver.h"
#include "simnet/network.h"
#include "transport/tcp.h"

namespace lazyeye::capture {
namespace {

using simnet::Family;
using simnet::IpAddress;

struct CaptureFixture : ::testing::Test {
  CaptureFixture()
      : net{5}, client_host{net.add_host("client")},
        server_host{net.add_host("server")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.1"));
    client_host.add_address(IpAddress::must_parse("2001:db8::1"));
    server_host.add_address(IpAddress::must_parse("10.0.0.2"));
    server_host.add_address(IpAddress::must_parse("2001:db8::2"));
    client_tcp = std::make_unique<transport::TcpStack>(client_host);
    server_tcp = std::make_unique<transport::TcpStack>(server_host);
    server_tcp->listen(443);
    cap = std::make_unique<PacketCapture>(client_host);
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
  std::unique_ptr<transport::TcpStack> client_tcp;
  std::unique_ptr<transport::TcpStack> server_tcp;
  std::unique_ptr<PacketCapture> cap;
};

TEST_F(CaptureFixture, RecordsTimestampsAndDirections) {
  client_tcp->connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                      [](const transport::ConnectResult&) {});
  net.loop().run();
  // SYN out, SYN-ACK in, ACK out.
  ASSERT_EQ(cap->size(), 3u);
  EXPECT_TRUE(cap->packets()[0].egress());
  EXPECT_FALSE(cap->packets()[1].egress());
  EXPECT_TRUE(cap->packets()[2].egress());
  EXPECT_EQ(cap->packets()[0].time, SimTime{0});
  EXPECT_EQ(cap->packets()[1].time, 2 * net.base_delay());
}

TEST_F(CaptureFixture, InferCadFromSynGap) {
  // v6 SYN at t=0, v4 SYN at t=250ms: the paper's CAD inference.
  client_tcp->connect({IpAddress::must_parse("2001:db8::2"), 443}, {},
                      [](const transport::ConnectResult&) {});
  net.loop().schedule_at(ms(250), [&] {
    client_tcp->connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                        [](const transport::ConnectResult&) {});
  });
  net.loop().run();
  const auto cad = infer_cad(*cap);
  ASSERT_TRUE(cad);
  EXPECT_EQ(*cad, ms(250));
}

TEST_F(CaptureFixture, InferCadRequiresBothFamilies) {
  client_tcp->connect({IpAddress::must_parse("2001:db8::2"), 443}, {},
                      [](const transport::ConnectResult&) {});
  net.loop().run();
  EXPECT_FALSE(infer_cad(*cap));
  EXPECT_TRUE(first_syn_time(*cap, Family::kIpv6));
  EXPECT_FALSE(first_syn_time(*cap, Family::kIpv4));
}

TEST_F(CaptureFixture, EstablishedFamilyFromSynAck) {
  client_tcp->connect({IpAddress::must_parse("2001:db8::2"), 443}, {},
                      [](const transport::ConnectResult&) {});
  net.loop().run();
  const auto family = established_family(*cap);
  ASSERT_TRUE(family);
  EXPECT_EQ(*family, Family::kIpv6);
}

TEST_F(CaptureFixture, NoEstablishmentToUnresponsive) {
  transport::TcpOptions options;
  options.syn_retries = 1;
  options.syn_rto = ms(200);
  client_tcp->connect({IpAddress::must_parse("10.0.0.99"), 443}, options,
                      [](const transport::ConnectResult&) {});
  net.loop().run();
  EXPECT_FALSE(established_family(*cap));
  const auto attempts = connection_attempts(*cap);
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0].syn_count, 2);  // initial + 1 retransmission
  EXPECT_FALSE(attempts[0].established);
}

TEST_F(CaptureFixture, AttemptSequenceOrderAndFamilies) {
  // Three staggered attempts: v6, v6, v4 (Safari-style prefix).
  transport::TcpOptions options;
  options.syn_retries = 0;
  options.syn_rto = sec(5);
  client_tcp->connect({IpAddress::must_parse("2001:db8::9"), 443}, options,
                      [](const transport::ConnectResult&) {});
  net.loop().schedule_at(ms(100), [&] {
    client_tcp->connect({IpAddress::must_parse("2001:db8::8"), 443}, options,
                        [](const transport::ConnectResult&) {});
  });
  net.loop().schedule_at(ms(200), [&] {
    client_tcp->connect({IpAddress::must_parse("10.0.0.9"), 443}, options,
                        [](const transport::ConnectResult&) {});
  });
  net.loop().run();
  const auto attempts = connection_attempts(*cap);
  ASSERT_EQ(attempts.size(), 3u);
  EXPECT_EQ(attempts[0].family(), Family::kIpv6);
  EXPECT_EQ(attempts[1].family(), Family::kIpv6);
  EXPECT_EQ(attempts[2].family(), Family::kIpv4);
  EXPECT_EQ(attempts[1].first_syn, ms(100));
  EXPECT_EQ(attempts[2].first_syn, ms(200));
  EXPECT_EQ(distinct_destinations(attempts, Family::kIpv6), 2);
  EXPECT_EQ(distinct_destinations(attempts, Family::kIpv4), 1);
}

TEST_F(CaptureFixture, RefusedAttemptFlagged) {
  client_tcp->connect({IpAddress::must_parse("10.0.0.2"), 81}, {},
                      [](const transport::ConnectResult&) {});
  net.loop().run();
  const auto attempts = connection_attempts(*cap);
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_TRUE(attempts[0].refused);
  EXPECT_FALSE(attempts[0].established);
}

// ------------------------------------------------------ DNS-layer views ----

struct DnsCaptureFixture : CaptureFixture {
  DnsCaptureFixture() {
    auth = std::make_unique<dns::AuthServer>(server_host);
    dns::Zone& zone = auth->add_zone(dns::DnsName::must_parse("he.lab"));
    const auto name = dns::DnsName::must_parse("www.he.lab");
    zone.add_a(name, *simnet::Ipv4Address::parse("10.0.0.2"));
    zone.add_aaaa(name, *simnet::Ipv6Address::parse("2001:db8::2"));
    // A variant whose AAAA answer is delayed by 120 ms.
    const auto delayed = dns::DnsName::must_parse("d120-aaaa.www.he.lab");
    zone.add_a(delayed, *simnet::Ipv4Address::parse("10.0.0.2"));
    zone.add_aaaa(delayed, *simnet::Ipv6Address::parse("2001:db8::2"));

    dns::StubOptions options;
    options.servers = {{IpAddress::must_parse("10.0.0.2"), 53}};
    stub = std::make_unique<dns::StubResolver>(client_host, options);
  }
  std::unique_ptr<dns::AuthServer> auth;
  std::unique_ptr<dns::StubResolver> stub;
};

TEST_F(DnsCaptureFixture, DnsExchangesMatchedByIdAndType) {
  dns::StubResolver::DualHandlers handlers;
  stub->resolve_dual(dns::DnsName::must_parse("www.he.lab"), handlers);
  net.loop().run();
  const auto exchanges = dns_exchanges(*cap);
  ASSERT_EQ(exchanges.size(), 2u);
  EXPECT_EQ(exchanges[0].qtype, dns::RrType::kAaaa);  // sent first
  EXPECT_EQ(exchanges[1].qtype, dns::RrType::kA);
  ASSERT_TRUE(exchanges[0].response_time);
  EXPECT_EQ(*exchanges[0].response_time - exchanges[0].query_time,
            2 * net.base_delay());
  EXPECT_EQ(exchanges[0].answer_count, 1u);
}

TEST_F(DnsCaptureFixture, UnansweredQueryHasNoResponseTime) {
  auth->set_response_interposer(
      [](const dns::DnsMessage&, dns::DnsMessage&, SimTime&,
         dns::ResponseDirectives& out) { out.drop = true; });
  dns::StubOptions options;
  options.servers = {{IpAddress::must_parse("10.0.0.2"), 53}};
  options.timeout = ms(300);
  options.attempts_per_server = 1;
  dns::StubResolver fast_stub{client_host, options};
  fast_stub.resolve_dual(dns::DnsName::must_parse("www.he.lab"), {});
  net.loop().run();
  const auto exchanges = dns_exchanges(*cap);
  ASSERT_EQ(exchanges.size(), 2u);
  EXPECT_FALSE(exchanges[0].response_time);
  EXPECT_FALSE(exchanges[1].response_time);
}

TEST_F(DnsCaptureFixture, ResolutionDelayInference) {
  // Client behaviour: A answer arrives, client waits 50 ms for AAAA, then
  // connects over IPv4. We emulate with explicit steps.
  dns::StubResolver::DualHandlers handlers;
  handlers.on_records = [&](dns::RrType type,
                            const std::vector<IpAddress>& addrs, SimTime) {
    if (type == dns::RrType::kA && !addrs.empty()) {
      net.loop().schedule_after(ms(50), [this] {
        client_tcp->connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                            [](const transport::ConnectResult&) {});
      });
    }
  };
  stub->resolve_dual(dns::DnsName::must_parse("d120-aaaa.www.he.lab"),
                     handlers);
  net.loop().run();
  const auto rd = infer_resolution_delay(*cap, dns_exchanges(*cap));
  ASSERT_TRUE(rd);
  EXPECT_EQ(*rd, ms(50));
}

TEST_F(DnsCaptureFixture, WaitForAGapInference) {
  // Client waits for the A response before the v6 SYN (the §5.2 deviation).
  dns::StubResolver::DualHandlers handlers;
  handlers.on_records = [&](dns::RrType type,
                            const std::vector<IpAddress>& addrs, SimTime) {
    if (type == dns::RrType::kA && !addrs.empty()) {
      client_tcp->connect({IpAddress::must_parse("2001:db8::2"), 443}, {},
                          [](const transport::ConnectResult&) {});
    }
  };
  stub->resolve_dual(dns::DnsName::must_parse("www.he.lab"), handlers);
  net.loop().run();
  const auto gap = a_response_to_v6_syn_gap(*cap, dns_exchanges(*cap));
  ASSERT_TRUE(gap);
  EXPECT_EQ(*gap, SimTime{0});
}

}  // namespace
}  // namespace lazyeye::capture
