// Cross-module integration tests: the full stack (HE engine -> stub -> the
// lab's authoritative server; TCP to a separate web server) plus failure
// injection (packet loss, garbage payloads, off-path responses, RST storms,
// concurrent sessions).
#include <gtest/gtest.h>

#include "capture/analysis.h"
#include "capture/capture.h"
#include "clients/client.h"
#include "clients/profiles.h"
#include "dns/auth_server.h"
#include "dns/stub_resolver.h"
#include "he/engine.h"
#include "simnet/network.h"

namespace lazyeye {
namespace {

using simnet::Family;
using simnet::IpAddress;

dns::DnsName N(const char* s) { return dns::DnsName::must_parse(s); }

// Full stack: the client's stub resolver asks the lab's authoritative
// server for site.lab names; the web server is a third host.
struct FullStackFixture : ::testing::Test {
  FullStackFixture()
      : net{31},
        client_host{net.add_host("client")},
        auth_host{net.add_host("auth")},
        web_host{net.add_host("web")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.2"));
    client_host.add_address(IpAddress::must_parse("2001:db8::2"));
    auth_host.add_address(IpAddress::must_parse("10.0.1.1"));
    auth_host.add_address(IpAddress::must_parse("2001:db8:1::1"));
    web_host.add_address(IpAddress::must_parse("10.0.2.80"));
    web_host.add_address(IpAddress::must_parse("2001:db8:2::80"));

    auth = std::make_unique<dns::AuthServer>(auth_host);
    dns::Zone& lab = auth->add_zone(N("lab"));
    lab.add_a(N("www.site.lab"), *simnet::Ipv4Address::parse("10.0.2.80"));
    lab.add_aaaa(N("www.site.lab"),
                 *simnet::Ipv6Address::parse("2001:db8:2::80"));

    web_tcp = std::make_unique<transport::TcpStack>(web_host);
    web_tcp->listen(443);
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& auth_host;
  simnet::Host& web_host;
  std::unique_ptr<dns::AuthServer> auth;
  std::unique_ptr<transport::TcpStack> web_tcp;
};

TEST_F(FullStackFixture, HappyEyeballsThroughLabAuthoritative) {
  dns::StubOptions stub_options;
  stub_options.servers = {{IpAddress::must_parse("10.0.1.1"), 53}};
  dns::StubResolver stub{client_host, stub_options};
  transport::TcpStack client_tcp{client_host};
  he::HappyEyeballsEngine engine{client_host, stub, client_tcp};
  engine.set_options(he::HeOptions::rfc8305());

  he::HeResult result;
  engine.connect(N("www.site.lab"), 443,
                 [&](const he::HeResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.family(), Family::kIpv6);
  // Both address queries reached the lab's authoritative server.
  EXPECT_GE(auth->query_log().size(), 2u);
}

TEST_F(FullStackFixture, BrokenV6AtWebServerStillConnectsViaV4) {
  // The web server's IPv6 is blackholed, the entire DNS tree is healthy:
  // HE must save the user with an IPv4 fallback at its CAD.
  net.qdisc().add_rule(
      simnet::PacketFilter::to_address(IpAddress::must_parse("2001:db8:2::80")),
      simnet::NetemSpec{SimTime{0}, SimTime{0}, 1.0}, "dead v6 web");

  dns::StubOptions stub_options;
  stub_options.servers = {{IpAddress::must_parse("10.0.1.1"), 53}};
  dns::StubResolver stub{client_host, stub_options};
  transport::TcpStack client_tcp{client_host};
  capture::PacketCapture cap{client_host};
  he::HappyEyeballsEngine engine{client_host, stub, client_tcp};
  engine.set_options(he::HeOptions::rfc8305());

  he::HeResult result;
  engine.connect(N("www.site.lab"), 443,
                 [&](const he::HeResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.family(), Family::kIpv4);
  const auto cad = capture::infer_cad(cap);
  ASSERT_TRUE(cad);
  EXPECT_EQ(*cad, ms(250));
}

TEST_F(FullStackFixture, ConcurrentSessionsDoNotInterfere) {
  dns::StubOptions stub_options;
  stub_options.servers = {{IpAddress::must_parse("10.0.1.1"), 53}};
  dns::StubResolver stub{client_host, stub_options};
  transport::TcpStack client_tcp{client_host};
  he::HappyEyeballsEngine engine{client_host, stub, client_tcp};
  engine.set_options(he::HeOptions::rfc8305());
  engine.options().cache_ttl = SimTime{0};  // force full runs

  int ok_count = 0;
  for (int i = 0; i < 5; ++i) {
    engine.connect(N("www.site.lab"), 443, [&](const he::HeResult& r) {
      if (r.ok) ++ok_count;
    });
  }
  net.loop().run();
  EXPECT_EQ(ok_count, 5);
  EXPECT_EQ(engine.active_sessions(), 0u);
}

// -------------------------------------------------- failure injection ----

struct FailureFixture : ::testing::Test {
  FailureFixture()
      : net{41}, client_host{net.add_host("client")},
        server_host{net.add_host("server")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.2"));
    client_host.add_address(IpAddress::must_parse("2001:db8::2"));
    server_host.add_address(IpAddress::must_parse("10.0.0.80"));
    server_host.add_address(IpAddress::must_parse("2001:db8::80"));
    server_tcp = std::make_unique<transport::TcpStack>(server_host);
    server_tcp->listen(443);
    auth = std::make_unique<dns::AuthServer>(server_host);
    dns::Zone& zone = auth->add_zone(N("he.lab"));
    zone.add_a(N("www.he.lab"), *simnet::Ipv4Address::parse("10.0.0.80"));
    zone.add_aaaa(N("www.he.lab"),
                  *simnet::Ipv6Address::parse("2001:db8::80"));
  }

  he::HeResult run_engine(he::HeOptions options,
                          dns::StubOptions stub_options = {}) {
    if (stub_options.servers.empty()) {
      stub_options.servers = {{IpAddress::must_parse("10.0.0.80"), 53}};
    }
    dns::StubResolver stub{client_host, stub_options};
    transport::TcpStack client_tcp{client_host};
    he::HappyEyeballsEngine engine{client_host, stub, client_tcp};
    engine.set_options(std::move(options));
    he::HeResult result;
    engine.connect(N("www.he.lab"), 443,
                   [&](const he::HeResult& r) { result = r; });
    net.loop().run();
    return result;
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
  std::unique_ptr<transport::TcpStack> server_tcp;
  std::unique_ptr<dns::AuthServer> auth;
};

TEST_F(FailureFixture, LossyNetworkEventuallyConnects) {
  // 30 % loss on everything: DNS retries + SYN retransmissions must still
  // land a connection.
  net.qdisc().add_rule(simnet::PacketFilter::any(),
                       simnet::NetemSpec{SimTime{0}, SimTime{0}, 0.3},
                       "lossy world");
  he::HeOptions options = he::HeOptions::rfc8305();
  options.tcp.syn_rto = ms(500);
  options.tcp.syn_retries = 8;
  options.overall_timeout = sec(60);
  dns::StubOptions stub_options;
  stub_options.servers = {{IpAddress::must_parse("10.0.0.80"), 53}};
  stub_options.timeout = ms(800);
  stub_options.attempts_per_server = 6;
  const auto result = run_engine(options, stub_options);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_F(FailureFixture, GarbageUdpToClientPortIsIgnored) {
  // Blast garbage at the client's resolver port range mid-resolution: the
  // DnsClient must ignore unparsable datagrams and mismatched ids.
  he::HeOptions options = he::HeOptions::rfc8305();
  dns::StubOptions stub_options;
  stub_options.servers = {{IpAddress::must_parse("10.0.0.80"), 53}};
  dns::StubResolver stub{client_host, stub_options};
  transport::TcpStack client_tcp{client_host};
  he::HappyEyeballsEngine engine{client_host, stub, client_tcp};
  engine.set_options(options);

  he::HeResult result;
  engine.connect(N("www.he.lab"), 443,
                 [&](const he::HeResult& r) { result = r; });
  // Garbage from the server towards the client's ephemeral ports.
  for (std::uint16_t port = 49152; port < 49160; ++port) {
    server_host.udp_send({IpAddress::must_parse("10.0.0.80"), 53},
                         {IpAddress::must_parse("10.0.0.2"), port},
                         simnet::Buffer::adopt({0xde, 0xad, 0xbe, 0xef}));
  }
  net.loop().run();
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_F(FailureFixture, OffPathDnsResponseNotAccepted) {
  // An attacker host answers from the wrong address; DnsClient must reject
  // the off-path response and accept the genuine one.
  simnet::Host& attacker = net.add_host("attacker");
  attacker.add_address(IpAddress::must_parse("10.0.0.66"));
  // The attacker sprays responses with guessed ids at likely ports.
  for (std::uint16_t port = 49152; port < 49156; ++port) {
    for (std::uint16_t id = 0; id < 8; ++id) {
      dns::DnsMessage fake;
      fake.header.id = id;
      fake.header.qr = true;
      fake.questions.push_back({N("www.he.lab"), dns::RrType::kAaaa});
      fake.answers.push_back(dns::ResourceRecord::aaaa(
          N("www.he.lab"), *simnet::Ipv6Address::parse("2001:db8::66")));
      attacker.udp_send({IpAddress::must_parse("10.0.0.66"), 53},
                        {IpAddress::must_parse("10.0.0.2"), port},
                        simnet::Buffer::adopt(fake.encode()));
    }
  }
  const auto result = run_engine(he::HeOptions::rfc8305());
  ASSERT_TRUE(result.ok);
  // Connected to the real server, not the attacker's address.
  EXPECT_EQ(result.remote.addr.to_string(), "2001:db8::80");
}

TEST_F(FailureFixture, ServerRstOnBothFamiliesFailsCleanly) {
  server_tcp->set_accept_interposer(
      [](const simnet::Endpoint&, std::uint16_t) {
        return transport::AcceptAction::kReset;
      });
  he::HeOptions options = he::HeOptions::rfc8305();
  const auto result = run_engine(options);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "all connection attempts failed");
}

TEST_F(FailureFixture, DnsServerDeadFailsAfterRetries) {
  auth->set_response_interposer(
      [](const dns::DnsMessage&, dns::DnsMessage&, SimTime&,
         dns::ResponseDirectives& out) { out.drop = true; });
  he::HeOptions options = he::HeOptions::rfc8305();
  dns::StubOptions stub_options;
  stub_options.servers = {{IpAddress::must_parse("10.0.0.80"), 53}};
  stub_options.timeout = ms(400);
  stub_options.attempts_per_server = 2;
  const auto result = run_engine(options, stub_options);
  EXPECT_FALSE(result.ok);
}

TEST_F(FailureFixture, SimulatedClientSurvivesResponseTimeout) {
  // Server accepts connections but never answers the HTTP request: the
  // fetch must complete with response_received = false.
  server_tcp->set_data_handler(nullptr);
  dns::StubOptions stub_options;
  stub_options.servers = {{IpAddress::must_parse("10.0.0.80"), 53}};
  clients::SimulatedClient client{client_host,
                                  clients::curl_profile(), stub_options};
  clients::FetchResult fetch;
  bool done = false;
  client.fetch(N("www.he.lab"), 443, [&](const clients::FetchResult& r) {
    fetch = r;
    done = true;
  });
  net.loop().run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(fetch.connection.ok);
  EXPECT_FALSE(fetch.response_received);
}

TEST_F(FailureFixture, ReorderingViaJitterStillCompletes) {
  net.qdisc().add_rule(simnet::PacketFilter::any(),
                       simnet::NetemSpec{ms(10), ms(9), 0.0}, "jitter");
  const auto result = run_engine(he::HeOptions::rfc8305());
  EXPECT_TRUE(result.ok) << result.error;
}

}  // namespace
}  // namespace lazyeye
