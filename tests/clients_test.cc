// Client profile registry, user-agent handling, and end-to-end fetches
// through SimulatedClient.
#include <gtest/gtest.h>

#include "capture/analysis.h"
#include "capture/capture.h"
#include "clients/client.h"
#include "clients/profiles.h"
#include "clients/user_agent.h"
#include "dns/auth_server.h"
#include "simnet/network.h"

namespace lazyeye::clients {
namespace {

using simnet::Family;
using simnet::IpAddress;

// ------------------------------------------------------------- profiles ----

TEST(ProfilesTest, LocalTestbedRosterMatchesFigure2) {
  const auto profiles = local_testbed_profiles();
  // 5 Chrome + 1 Chromium + 5 Edge + 4 Firefox + curl + wget = 17 rows.
  EXPECT_EQ(profiles.size(), 17u);
}

TEST(ProfilesTest, ChromiumGroundTruth) {
  const auto p = chromium_profile("Chrome", "130.0", "10-2024");
  EXPECT_EQ(p.options.connection_attempt_delay, ms(300));
  EXPECT_TRUE(p.options.wait_for_a_record);
  EXPECT_TRUE(p.options.fail_on_a_timeout);
  EXPECT_FALSE(p.options.resolution_delay);
  EXPECT_EQ(p.options.max_addresses_per_family, 1);
}

TEST(ProfilesTest, ChromiumHev3FlagChangesBehaviour) {
  const auto p = chromium_profile("Chrome", "130.0", "10-2024", true);
  ASSERT_TRUE(p.options.resolution_delay);
  EXPECT_EQ(*p.options.resolution_delay, ms(50));
  EXPECT_FALSE(p.options.wait_for_a_record);
  EXPECT_FALSE(p.options.fail_on_a_timeout);
}

TEST(ProfilesTest, FirefoxUsesRfcRecommendation) {
  const auto p = firefox_profile("132.0", "10-2024");
  EXPECT_EQ(p.options.connection_attempt_delay, ms(250));
  EXPECT_GT(p.cad_outlier_prob, 0.0);
}

TEST(ProfilesTest, CurlSmallestCad) {
  const auto p = curl_profile();
  EXPECT_EQ(p.options.connection_attempt_delay, ms(200));
  EXPECT_FALSE(p.options.fail_on_a_timeout);
}

TEST(ProfilesTest, WgetHasNoHappyEyeballs) {
  const auto p = wget_profile();
  EXPECT_FALSE(p.options.fallback_enabled);
  EXPECT_EQ(p.options.cache_ttl, SimTime{0});
}

TEST(ProfilesTest, SafariIsTheOnlyHev2Client) {
  // HEv2's DNS handling shows as a Resolution Delay.
  int hev2_count = 0;
  for (const auto& p : all_client_profiles()) {
    if (p.options.resolution_delay) ++hev2_count;
  }
  // Safari + Mobile Safari (same engine).
  EXPECT_EQ(hev2_count, 2);
  const auto safari = safari_profile("17.6");
  EXPECT_TRUE(safari.options.dynamic_cad.enabled);
  EXPECT_EQ(safari.options.dynamic_cad.no_history_default, sec(2));
  EXPECT_EQ(safari.options.first_address_family_count, 2);
  EXPECT_EQ(safari.options.max_addresses_per_family, 10);
  ASSERT_TRUE(safari.options.resolution_delay);
  EXPECT_EQ(*safari.options.resolution_delay, ms(50));
}

TEST(ProfilesTest, MobileSafariCapsCadAtOneSecond) {
  const auto p = mobile_safari_profile("17.6");
  EXPECT_EQ(p.options.dynamic_cad.maximum, sec(1));
}

TEST(ProfilesTest, IcprEgressOperatorValues) {
  const auto akamai = icpr_egress_profile("Akamai");
  EXPECT_EQ(akamai.options.connection_attempt_delay, ms(150));
  EXPECT_EQ(akamai.dns_timeout, ms(400));
  const auto cloudflare = icpr_egress_profile("Cloudflare");
  EXPECT_EQ(cloudflare.options.connection_attempt_delay, ms(200));
  EXPECT_EQ(cloudflare.dns_timeout, ms(1750));
}

TEST(ProfilesTest, FindByDisplayName) {
  const auto p = find_client_profile("Chrome 130.0");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->options.connection_attempt_delay, ms(300));
  EXPECT_FALSE(find_client_profile("Netscape 4.0"));
}

TEST(ProfilesTest, FigureLabels) {
  EXPECT_EQ(curl_profile().figure_label(), "curl (7.88.1 02-2023)");
  EXPECT_EQ(safari_profile("17.5").figure_label(), "Safari (17.5)");
}

// ----------------------------------------------------------- user agent ----

TEST(UserAgentTest, ChromeWindowsRoundTrip) {
  const auto ua = make_user_agent("Chrome", "127.0.0", "Windows 10", "");
  const auto info = parse_user_agent(ua);
  EXPECT_EQ(info.browser, "Chrome");
  EXPECT_EQ(info.browser_version, "127.0.0");
  EXPECT_EQ(info.os_name, "Windows");
  EXPECT_EQ(info.os_version, "10");
}

TEST(UserAgentTest, SafariMacRoundTrip) {
  const auto ua = make_user_agent("Safari", "17.5", "Mac OS X", "10.15.7");
  const auto info = parse_user_agent(ua);
  EXPECT_EQ(info.browser, "Safari");
  EXPECT_EQ(info.browser_version, "17.5");
  EXPECT_EQ(info.os_name, "Mac OS X");
  EXPECT_EQ(info.os_version, "10.15.7");
}

TEST(UserAgentTest, MobileSafariIos) {
  const auto ua = make_user_agent("Mobile Safari", "17.6", "iOS", "17.6.1");
  const auto info = parse_user_agent(ua);
  EXPECT_EQ(info.browser, "Mobile Safari");
  EXPECT_EQ(info.os_name, "iOS");
  EXPECT_EQ(info.os_version, "17.6.1");
}

TEST(UserAgentTest, EdgeDetectedBeforeChrome) {
  const auto ua = make_user_agent("Edge", "130.0.0", "Windows 10", "");
  const auto info = parse_user_agent(ua);
  EXPECT_EQ(info.browser, "Edge");
}

TEST(UserAgentTest, LinuxCarriesNoOsVersion) {
  const auto ua = make_user_agent("Firefox", "131.0", "Linux", "");
  const auto info = parse_user_agent(ua);
  EXPECT_EQ(info.os_name, "Linux");
  EXPECT_TRUE(info.os_version.empty());
  const auto ubuntu = parse_user_agent(
      make_user_agent("Firefox", "128.0", "Ubuntu", ""));
  EXPECT_EQ(ubuntu.os_name, "Ubuntu");
  EXPECT_TRUE(ubuntu.os_version.empty());
}

TEST(UserAgentTest, AndroidVariants) {
  const auto chrome = parse_user_agent(
      make_user_agent("Chrome Mobile", "130.0.0", "Android", "10"));
  EXPECT_EQ(chrome.browser, "Chrome Mobile");
  EXPECT_EQ(chrome.os_name, "Android");
  EXPECT_EQ(chrome.os_version, "10");
  const auto firefox = parse_user_agent(
      make_user_agent("Firefox Mobile", "131.0", "Android", "14"));
  EXPECT_EQ(firefox.browser, "Firefox Mobile");
  const auto samsung = parse_user_agent(
      make_user_agent("Samsung Internet", "26.0", "Android", "10"));
  EXPECT_EQ(samsung.browser, "Samsung Internet");
}

TEST(UserAgentTest, ChromeOsAndOpera) {
  const auto cros = parse_user_agent(
      make_user_agent("Chrome", "129.0.0", "Chrome OS", "14541.0.0"));
  EXPECT_EQ(cros.os_name, "Chrome OS");
  EXPECT_EQ(cros.os_version, "14541.0.0");
  const auto opera = parse_user_agent(
      make_user_agent("Opera", "114.0.0", "Mac OS X", "10.15.7"));
  EXPECT_EQ(opera.browser, "Opera");
}

// ------------------------------------------------------ simulated client ----

struct ClientFixture : ::testing::Test {
  ClientFixture()
      : net{21}, client_host{net.add_host("client")},
        server_host{net.add_host("server")},
        dns_host{net.add_host("dns")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.2"));
    client_host.add_address(IpAddress::must_parse("2001:db8::2"));
    server_host.add_address(IpAddress::must_parse("10.0.0.80"));
    server_host.add_address(IpAddress::must_parse("2001:db8::80"));
    dns_host.add_address(IpAddress::must_parse("10.0.0.53"));

    // Echo server: answers with the client's source address (the web tool's
    // server behaviour).
    server_tcp = std::make_unique<transport::TcpStack>(server_host);
    server_tcp->listen(443);
    server_tcp->set_data_handler(
        [this](std::uint64_t conn_id, std::span<const std::uint8_t>) {
          const std::string body = last_peer.addr.to_string();
          server_tcp->send_data(conn_id,
                                std::vector<std::uint8_t>{body.begin(),
                                                          body.end()});
        });
    server_tcp->listen(443, [this](std::uint64_t, const simnet::Endpoint& p) {
      last_peer = p;
    });

    auth = std::make_unique<dns::AuthServer>(dns_host);
    dns::Zone& zone = auth->add_zone(dns::DnsName::must_parse("he.lab"));
    zone.add_a(dns::DnsName::must_parse("www.he.lab"),
               *simnet::Ipv4Address::parse("10.0.0.80"));
    zone.add_aaaa(dns::DnsName::must_parse("www.he.lab"),
                  *simnet::Ipv6Address::parse("2001:db8::80"));
  }

  dns::StubOptions stub_options() {
    dns::StubOptions o;
    o.servers = {{IpAddress::must_parse("10.0.0.53"), 53}};
    return o;
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
  simnet::Host& dns_host;
  std::unique_ptr<transport::TcpStack> server_tcp;
  std::unique_ptr<dns::AuthServer> auth;
  simnet::Endpoint last_peer;
};

TEST_F(ClientFixture, FetchReturnsSourceAddressEcho) {
  SimulatedClient client{client_host, chromium_profile("Chrome", "130.0", ""),
                         stub_options()};
  FetchResult result;
  client.fetch(dns::DnsName::must_parse("www.he.lab"), 443,
               [&](const FetchResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.connection.ok) << result.connection.error;
  ASSERT_TRUE(result.response_received);
  // Chromium prefers IPv6 -> the echoed source address is the v6 one.
  EXPECT_EQ(result.response_text(), "2001:db8::2");
}

TEST_F(ClientFixture, ChromeFallsBackAtConfiguredCad) {
  server_host.egress().add_rule(
      simnet::PacketFilter::for_family(Family::kIpv6),
      simnet::NetemSpec::delay_only(ms(500)));
  SimulatedClient client{client_host, chromium_profile("Chrome", "130.0", ""),
                         stub_options()};
  capture::PacketCapture cap{client_host};
  FetchResult result;
  client.fetch(dns::DnsName::must_parse("www.he.lab"), 443,
               [&](const FetchResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.connection.ok);
  EXPECT_EQ(result.response_text(), "10.0.0.2");  // IPv4 source
  const auto cad = capture::infer_cad(cap);
  ASSERT_TRUE(cad);
  EXPECT_EQ(*cad, ms(300));  // Chromium's 300 ms
}

TEST_F(ClientFixture, WgetFailsWithoutTouchingV4) {
  // IPv6 connectivity fully broken (drop SYNs over v6).
  net.qdisc().add_rule(simnet::PacketFilter::for_family(Family::kIpv6),
                       simnet::NetemSpec{SimTime{0}, SimTime{0}, 1.0});
  SimulatedClient client{client_host, wget_profile(), stub_options()};
  capture::PacketCapture cap{client_host};
  FetchResult result;
  bool finished = false;
  client.fetch(dns::DnsName::must_parse("www.he.lab"), 443,
               [&](const FetchResult& r) {
                 result = r;
                 finished = true;
               });
  net.loop().run();
  ASSERT_TRUE(finished);
  EXPECT_FALSE(result.connection.ok);
  EXPECT_FALSE(capture::first_syn_time(cap, Family::kIpv4));
}

TEST_F(ClientFixture, ResetStateClearsOutcomeCache) {
  SimulatedClient client{client_host, safari_profile("17.6"), stub_options()};
  FetchResult result;
  client.fetch(dns::DnsName::must_parse("www.he.lab"), 443,
               [&](const FetchResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.connection.ok);
  const auto queries_after_first = auth->query_log().size();

  client.reset_state();
  client.fetch(dns::DnsName::must_parse("www.he.lab"), 443,
               [&](const FetchResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.connection.ok);
  // Fresh container state: DNS was queried again.
  EXPECT_GT(auth->query_log().size(), queries_after_first);
}

TEST_F(ClientFixture, SafariLabCadIsTwoSeconds) {
  server_host.egress().add_rule(
      simnet::PacketFilter::for_family(Family::kIpv6),
      simnet::NetemSpec::delay_only(ms(2500)));
  SimulatedClient client{client_host, safari_profile("17.6"), stub_options()};
  client.reset_state();  // no RTT history: lab conditions
  capture::PacketCapture cap{client_host};
  FetchResult result;
  client.fetch(dns::DnsName::must_parse("www.he.lab"), 443,
               [&](const FetchResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.connection.ok);
  EXPECT_EQ(result.connection.family(), Family::kIpv4);
  const auto cad = capture::infer_cad(cap);
  ASSERT_TRUE(cad);
  EXPECT_EQ(*cad, sec(2));
}

}  // namespace
}  // namespace lazyeye::clients
