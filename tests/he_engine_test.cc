// Happy Eyeballs engine tests: the full state machine across DNS arrival
// orders, resolution delay, CAD staggering, deviations, caching.
#include <gtest/gtest.h>

#include "capture/analysis.h"
#include "capture/capture.h"
#include "dns/auth_server.h"
#include "he/engine.h"
#include "simnet/network.h"

namespace lazyeye::he {
namespace {

using simnet::Family;
using simnet::IpAddress;
using simnet::Ipv4Address;
using simnet::Ipv6Address;

dns::DnsName N(const char* s) { return dns::DnsName::must_parse(s); }

struct EngineFixture : ::testing::Test {
  EngineFixture()
      : net{11}, client_host{net.add_host("client")},
        server_host{net.add_host("server")},
        dns_host{net.add_host("dns")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.2"));
    client_host.add_address(IpAddress::must_parse("2001:db8::2"));
    server_host.add_address(IpAddress::must_parse("10.0.0.80"));
    server_host.add_address(IpAddress::must_parse("2001:db8::80"));
    dns_host.add_address(IpAddress::must_parse("10.0.0.53"));

    server_tcp = std::make_unique<transport::TcpStack>(server_host);
    server_tcp->listen(443);

    auth = std::make_unique<dns::AuthServer>(dns_host);
    zone = &auth->add_zone(N("he.lab"));
    zone->add_a(N("www.he.lab"), *Ipv4Address::parse("10.0.0.80"));
    zone->add_aaaa(N("www.he.lab"), *Ipv6Address::parse("2001:db8::80"));

    dns::StubOptions stub_options;
    stub_options.servers = {{IpAddress::must_parse("10.0.0.53"), 53}};
    stub = std::make_unique<dns::StubResolver>(client_host, stub_options);
    client_tcp = std::make_unique<transport::TcpStack>(client_host);
    engine = std::make_unique<HappyEyeballsEngine>(client_host, *stub,
                                                   *client_tcp);
    cap = std::make_unique<capture::PacketCapture>(client_host);
  }

  /// Adds A/AAAA records for a (possibly param-carrying) name.
  void add_records(const dns::DnsName& name, int v6_count = 1,
                   int v4_count = 1, bool responsive = true) {
    for (int i = 0; i < v6_count; ++i) {
      const std::string addr = responsive
                                   ? "2001:db8::80"
                                   : "2001:db8:dead::" + std::to_string(i + 1);
      zone->add_aaaa(name, *Ipv6Address::parse(addr));
    }
    for (int i = 0; i < v4_count; ++i) {
      const std::string addr =
          responsive ? "10.0.0.80" : "10.9.9." + std::to_string(i + 1);
      zone->add_a(name, *Ipv4Address::parse(addr));
    }
  }

  HeResult run_connect(const dns::DnsName& name) {
    HeResult result;
    bool done = false;
    engine->connect(name, 443, [&](const HeResult& r) {
      result = r;
      done = true;
    });
    net.loop().run();
    EXPECT_TRUE(done);
    return result;
  }

  /// Times of kAttemptStarted events, with families.
  static std::vector<std::pair<SimTime, Family>> attempt_times(
      const HeResult& result) {
    std::vector<std::pair<SimTime, Family>> out;
    for (const auto& ev : result.trace) {
      if (ev.type == HeEvent::Type::kAttemptStarted) {
        out.emplace_back(ev.time, ev.address.family());
      }
    }
    return out;
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
  simnet::Host& dns_host;
  std::unique_ptr<transport::TcpStack> server_tcp;
  std::unique_ptr<dns::AuthServer> auth;
  dns::Zone* zone = nullptr;
  std::unique_ptr<dns::StubResolver> stub;
  std::unique_ptr<transport::TcpStack> client_tcp;
  std::unique_ptr<HappyEyeballsEngine> engine;
  std::unique_ptr<capture::PacketCapture> cap;
};

TEST_F(EngineFixture, PrefersIpv6WhenHealthy) {
  engine->set_options(HeOptions::rfc8305());
  const auto result = run_connect(N("www.he.lab"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.family(), Family::kIpv6);
  // Only one attempt: IPv6 established before the CAD expired.
  EXPECT_EQ(attempt_times(result).size(), 1u);
  EXPECT_FALSE(capture::first_syn_time(*cap, Family::kIpv4));
}

TEST_F(EngineFixture, CadFallbackToV4WhenV6Slow) {
  // Delay IPv6 towards the client (server-side netem in the paper).
  server_host.egress().add_rule(
      simnet::PacketFilter::for_family(Family::kIpv6),
      simnet::NetemSpec::delay_only(ms(400)));
  HeOptions o = HeOptions::rfc8305();
  o.connection_attempt_delay = ms(250);
  engine->set_options(o);

  const auto result = run_connect(N("www.he.lab"));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.family(), Family::kIpv4);

  // The packet capture shows the CAD (paper methodology).
  const auto cad = capture::infer_cad(*cap);
  ASSERT_TRUE(cad);
  EXPECT_EQ(*cad, ms(250));
}

TEST_F(EngineFixture, V6WinsWhenDelayBelowCad) {
  server_host.egress().add_rule(
      simnet::PacketFilter::for_family(Family::kIpv6),
      simnet::NetemSpec::delay_only(ms(100)));
  HeOptions o = HeOptions::rfc8305();
  o.connection_attempt_delay = ms(250);
  engine->set_options(o);
  const auto result = run_connect(N("www.he.lab"));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.family(), Family::kIpv6);
  EXPECT_FALSE(capture::first_syn_time(*cap, Family::kIpv4));
}

TEST_F(EngineFixture, ResolutionDelayExpiryStartsV4) {
  const auto name = N("d200-aaaa.rd.he.lab");
  add_records(name);
  HeOptions o = HeOptions::rfc8305();  // RD = 50 ms
  engine->set_options(o);

  const auto result = run_connect(name);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.family(), Family::kIpv4);

  // The v4 SYN leaves ~50 ms after the A response arrived.
  bool rd_started = false;
  bool rd_expired = false;
  for (const auto& ev : result.trace) {
    if (ev.type == HeEvent::Type::kResolutionDelayStarted) rd_started = true;
    if (ev.type == HeEvent::Type::kResolutionDelayExpired) rd_expired = true;
  }
  EXPECT_TRUE(rd_started);
  EXPECT_TRUE(rd_expired);
  const auto attempts = attempt_times(result);
  ASSERT_FALSE(attempts.empty());
  EXPECT_EQ(attempts[0].second, Family::kIpv4);
  // A response at ~2*base_delay; attempt at +50 ms RD.
  EXPECT_EQ(attempts[0].first, 2 * net.base_delay() + ms(50));
}

TEST_F(EngineFixture, AaaaDuringResolutionDelayGoesStraightToV6) {
  const auto name = N("d20-aaaa.rd2.he.lab");
  add_records(name);
  engine->set_options(HeOptions::rfc8305());  // RD 50 ms > 20 ms AAAA delay
  const auto result = run_connect(name);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.family(), Family::kIpv6);
  EXPECT_FALSE(capture::first_syn_time(*cap, Family::kIpv4));
}

TEST_F(EngineFixture, NoRdWaitsForAaaaIndefinitely) {
  // Chromium/Firefox §5.2: without RD the client waits for the AAAA answer
  // (here 600 ms) even though A arrived immediately.
  const auto name = N("d600-aaaa.nord.he.lab");
  add_records(name);
  HeOptions o = HeOptions::rfc8305();
  o.resolution_delay = std::nullopt;
  engine->set_options(o);
  const auto result = run_connect(name);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.family(), Family::kIpv6);
  const auto v6_syn = capture::first_syn_time(*cap, Family::kIpv6);
  ASSERT_TRUE(v6_syn);
  EXPECT_GE(*v6_syn, ms(600));
}

TEST_F(EngineFixture, WaitForARecordDelaysV6Start) {
  // The §5.2 deviation: AAAA is in hand, but the client sits on it until
  // the A response (delayed 300 ms) arrives, then connects via IPv6.
  const auto name = N("d300-a.wfa.he.lab");
  add_records(name);
  HeOptions o = HeOptions::rfc8305();
  o.wait_for_a_record = true;
  engine->set_options(o);
  const auto result = run_connect(name);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.family(), Family::kIpv6);
  const auto gap =
      capture::a_response_to_v6_syn_gap(*cap, capture::dns_exchanges(*cap));
  ASSERT_TRUE(gap);
  EXPECT_EQ(*gap, SimTime{0});  // fired immediately after A arrived
  const auto v6_syn = capture::first_syn_time(*cap, Family::kIpv6);
  EXPECT_GE(*v6_syn, ms(300));
}

TEST_F(EngineFixture, FailOnATimeoutKillsSession) {
  // Chrome/Firefox complete failure (§5.2): A delayed beyond the resolver
  // timeout, IPv6 perfectly healthy.
  const auto name = N("d9000-a.fail.he.lab");
  add_records(name);
  dns::StubOptions fast;
  fast.servers = {{IpAddress::must_parse("10.0.0.53"), 53}};
  fast.timeout = sec(1);
  fast.attempts_per_server = 1;
  dns::StubResolver fast_stub{client_host, fast};
  HappyEyeballsEngine chrome{client_host, fast_stub, *client_tcp};
  HeOptions o = HeOptions::rfc8305();
  o.resolution_delay = std::nullopt;
  o.wait_for_a_record = true;
  o.fail_on_a_timeout = true;
  chrome.set_options(o);

  HeResult result;
  chrome.connect(name, 443, [&](const HeResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "A lookup failed");
  // No connection attempt was ever made despite working IPv6.
  EXPECT_FALSE(capture::first_syn_time(*cap, Family::kIpv6));
}

TEST_F(EngineFixture, CurlStyleProceedsV6AfterATimeout) {
  const auto name = N("d9000-a.curl.he.lab");
  add_records(name);
  dns::StubOptions fast;
  fast.servers = {{IpAddress::must_parse("10.0.0.53"), 53}};
  fast.timeout = sec(1);
  fast.attempts_per_server = 1;
  dns::StubResolver fast_stub{client_host, fast};
  HappyEyeballsEngine curl{client_host, fast_stub, *client_tcp};
  HeOptions o = HeOptions::rfc8305();
  o.resolution_delay = std::nullopt;
  o.wait_for_a_record = true;
  o.fail_on_a_timeout = false;
  curl.set_options(o);

  HeResult result;
  curl.connect(name, 443, [&](const HeResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.family(), Family::kIpv6);
  EXPECT_GE(result.completed, sec(1));  // waited out the resolver timeout
}

TEST_F(EngineFixture, NoFallbackNeverTouchesV4) {
  // wget: IPv6 addresses are unresponsive, yet IPv4 is never attempted.
  const auto name = N("broken6.he.lab");
  add_records(name, 1, 1, /*responsive=*/false);
  zone->add_a(name, *Ipv4Address::parse("10.0.0.80"));  // working v4 exists

  HeOptions o = HeOptions::none();
  o.tcp.syn_rto = ms(500);
  o.tcp.syn_retries = 1;
  o.overall_timeout = sec(10);
  engine->set_options(o);

  const auto result = run_connect(name);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(capture::first_syn_time(*cap, Family::kIpv6));
  EXPECT_FALSE(capture::first_syn_time(*cap, Family::kIpv4));
}

TEST_F(EngineFixture, SafariAddressSelectionAcrossTwentyAddresses) {
  const auto name = N("multi.he.lab");
  add_records(name, 10, 10, /*responsive=*/false);

  HeOptions o = HeOptions::rfc8305();
  o.first_address_family_count = 2;
  o.interlace = InterlaceMode::kFirstOtherThenRest;
  o.max_addresses_per_family = 10;
  o.connection_attempt_delay = ms(100);
  o.tcp.syn_rto = sec(30);  // attempts stay pending; stagger drives starts
  o.overall_timeout = sec(10);
  engine->set_options(o);

  const auto result = run_connect(name);
  EXPECT_FALSE(result.ok);  // everything unresponsive

  const auto attempts = capture::connection_attempts(*cap);
  ASSERT_EQ(attempts.size(), 20u);
  EXPECT_EQ(capture::distinct_destinations(attempts, Family::kIpv6), 10);
  EXPECT_EQ(capture::distinct_destinations(attempts, Family::kIpv4), 10);
  // Safari pattern: v6 v6 v4 then the remaining v6 block.
  EXPECT_EQ(attempts[0].family(), Family::kIpv6);
  EXPECT_EQ(attempts[1].family(), Family::kIpv6);
  EXPECT_EQ(attempts[2].family(), Family::kIpv4);
  for (int i = 3; i < 11; ++i) {
    EXPECT_EQ(attempts[static_cast<std::size_t>(i)].family(), Family::kIpv6);
  }
  // Attempts staggered by the CAD.
  EXPECT_EQ(attempts[1].first_syn - attempts[0].first_syn, ms(100));
}

TEST_F(EngineFixture, HEv1StyleOnlyOneAddressPerFamily) {
  const auto name = N("multi2.he.lab");
  add_records(name, 10, 10, /*responsive=*/false);

  HeOptions o = HeOptions::rfc6555();
  o.connection_attempt_delay = ms(300);
  o.tcp.syn_rto = ms(400);
  o.tcp.syn_retries = 1;
  o.overall_timeout = sec(20);
  engine->set_options(o);

  const auto result = run_connect(name);
  EXPECT_FALSE(result.ok);
  const auto attempts = capture::connection_attempts(*cap);
  // HEv1: one IPv6 and one IPv4 attempt, nothing else (Table 2 / Fig. 5).
  EXPECT_EQ(capture::distinct_destinations(attempts, Family::kIpv6), 1);
  EXPECT_EQ(capture::distinct_destinations(attempts, Family::kIpv4), 1);
}

TEST_F(EngineFixture, AttemptFailureStartsNextImmediately) {
  // First address refuses (RST, closed port on a live host); second works.
  const auto name = N("refuse.he.lab");
  simnet::Host& refuser = net.add_host("refuser");
  refuser.add_address(IpAddress::must_parse("2001:db8::81"));
  transport::TcpStack refuser_tcp{refuser};  // no listener: RSTs port 443
  zone->add_aaaa(name, *Ipv6Address::parse("2001:db8::81"));  // port closed
  zone->add_a(name, *Ipv4Address::parse("10.0.0.80"));

  HeOptions o = HeOptions::rfc8305();
  o.connection_attempt_delay = sec(1);  // long CAD: failure must preempt it
  engine->set_options(o);
  const auto result = run_connect(name);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.family(), Family::kIpv4);
  // RST arrives ~0.4 ms in; the v4 attempt follows immediately, far before
  // the 1 s CAD.
  EXPECT_LT(result.completed, ms(100));
}

TEST_F(EngineFixture, CacheHitSkipsDns) {
  engine->set_options(HeOptions::rfc8305());
  ASSERT_TRUE(run_connect(N("www.he.lab")).ok);
  const auto dns_queries_before = auth->query_log().size();

  const auto second = run_connect(N("www.he.lab"));
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(auth->query_log().size(), dns_queries_before);  // no new queries
  ASSERT_FALSE(second.trace.empty());
  EXPECT_EQ(second.trace.front().type, HeEvent::Type::kCacheHit);
}

TEST_F(EngineFixture, CacheExpiresAfterTtl) {
  engine->set_options(HeOptions::rfc8305());
  ASSERT_TRUE(run_connect(N("www.he.lab")).ok);
  net.loop().run_for(minutes(11));  // beyond the 10 min TTL
  const auto queries_before = auth->query_log().size();
  ASSERT_TRUE(run_connect(N("www.he.lab")).ok);
  EXPECT_GT(auth->query_log().size(), queries_before);  // resolved again
}

TEST_F(EngineFixture, StaleCacheFallsBackToFullAlgorithm) {
  engine->set_options(HeOptions::rfc8305());
  ASSERT_TRUE(run_connect(N("www.he.lab")).ok);

  // The cached IPv6 winner goes dark.
  net.qdisc().add_rule(
      simnet::PacketFilter::to_address(IpAddress::must_parse("2001:db8::80")),
      simnet::NetemSpec{SimTime{0}, SimTime{0}, 1.0}, "v6 dark");

  HeOptions o = HeOptions::rfc8305();
  o.tcp.syn_rto = ms(250);
  o.tcp.syn_retries = 1;
  engine->set_options(o);
  const auto result = run_connect(N("www.he.lab"));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.family(), Family::kIpv4);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.front().type, HeEvent::Type::kCacheHit);
}

TEST_F(EngineFixture, OverallTimeoutFailsSession) {
  const auto name = N("dark.he.lab");
  add_records(name, 1, 1, /*responsive=*/false);
  HeOptions o = HeOptions::rfc8305();
  o.tcp.syn_rto = sec(60);
  o.overall_timeout = sec(3);
  engine->set_options(o);
  const auto result = run_connect(name);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "overall timeout");
  EXPECT_EQ(result.elapsed(), sec(3));
}

TEST_F(EngineFixture, NxDomainFailsCleanly) {
  engine->set_options(HeOptions::rfc8305());
  const auto result = run_connect(N("missing.he.lab"));
  EXPECT_FALSE(result.ok);
}

TEST_F(EngineFixture, CancelSessionReportsCancelled) {
  engine->set_options(HeOptions::rfc8305());
  HeResult result;
  const auto id =
      engine->connect(N("www.he.lab"), 443, [&](const HeResult& r) {
        result = r;
      });
  engine->cancel(id);
  net.loop().run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "cancelled");
  EXPECT_EQ(engine->active_sessions(), 0u);
}

TEST_F(EngineFixture, DynamicCadUsesHistory) {
  HeOptions o = HeOptions::rfc8305();
  o.dynamic_cad.enabled = true;
  o.dynamic_cad.minimum = ms(50);
  o.dynamic_cad.maximum = sec(2);
  o.dynamic_cad.rtt_multiplier = 100.0;
  o.dynamic_cad.no_history_default = sec(2);
  engine->set_options(o);

  // First connect on the healthy network builds RTT history (~0.4 ms).
  const auto first = run_connect(N("www.he.lab"));
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.family(), Family::kIpv6);
  ASSERT_TRUE(engine->smoothed_rtt());

  // IPv6 degrades to 400 ms. With history the dynamic CAD collapses to
  // clamp(100 * 0.4 ms) = 50 ms, so IPv4 wins; without history the 2 s
  // default would have let IPv6 win.
  server_host.egress().add_rule(
      simnet::PacketFilter::for_family(Family::kIpv6),
      simnet::NetemSpec::delay_only(ms(400)));
  engine->cache().clear();
  cap = std::make_unique<capture::PacketCapture>(client_host);  // fresh wire
  const auto second = run_connect(N("www.he.lab"));
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.family(), Family::kIpv4);
  const auto cad = capture::infer_cad(*cap);
  ASSERT_TRUE(cad);
  EXPECT_EQ(*cad, ms(50));
}

TEST_F(EngineFixture, TraceEventNamesAreStable) {
  EXPECT_STREQ(he_event_type_name(HeEvent::Type::kCacheHit), "cache-hit");
  EXPECT_STREQ(he_event_type_name(HeEvent::Type::kFailed), "failed");
}

using HeEngineTest = EngineFixture;

/// "<event name> <detail>" per trace event.
std::vector<std::string> rendered(const HeResult& result) {
  std::vector<std::string> out;
  for (const auto& ev : result.trace) {
    out.push_back(std::string{he_event_type_name(ev.type)} + " " +
                  ev.detail.text());
  }
  return out;
}

TEST_F(HeEngineTest, TraceDetailsRenderTheParentsText) {
  using Lines = std::vector<std::string>;
  engine->set_options(HeOptions::rfc8305());

  // Happy path, then a cache hit on the remembered IPv6 winner.
  EXPECT_EQ(rendered(run_connect(N("www.he.lab"))),
            (Lines{"dns-query AAAA then A",
                   "dns-response AAAA: 1 records",
                   "address-selection 1 attempts planned",
                   "attempt-start [2001:db8::80]:443",
                   "dns-response A: 1 records",
                   "established [2001:db8::80]:443"}));
  EXPECT_EQ(rendered(run_connect(N("www.he.lab"))),
            (Lines{"cache-hit 2001:db8::80",
                   "attempt-start [2001:db8::80]:443",
                   "established [2001:db8::80]:443"}));

  // Neither family resolves: no usable addresses.
  EXPECT_EQ(rendered(run_connect(N("missing.he.lab"))),
            (Lines{"dns-query AAAA then A",
                   "dns-response AAAA: 0 records",
                   "dns-response A: 0 records",
                   "address-selection 0 attempts planned",
                   "failed no usable addresses"}));

  // Cancelled before anything ran.
  HeResult cancelled;
  engine->cancel(engine->connect(N("www.he.lab"), 443,
                                 [&](const HeResult& r) { cancelled = r; }));
  net.loop().run();
  EXPECT_EQ(rendered(cancelled),
            (Lines{"cache-hit 2001:db8::80",
                   "attempt-start [2001:db8::80]:443",
                   "failed cancelled"}));

  // A first: the resolution delay starts and expires.
  const auto rd = N("d200-aaaa.rd.he.lab");
  add_records(rd);
  EXPECT_EQ(rendered(run_connect(rd)),
            (Lines{"dns-query AAAA then A",
                   "dns-response A: 1 records",
                   "rd-start 50ms",
                   "rd-expired ",
                   "address-selection 1 attempts planned",
                   "attempt-start 10.0.0.80:443",
                   "established 10.0.0.80:443"}));

  // The first address refuses: an attempt fails, the next one wins.
  const auto refuse = N("refuse.he.lab");
  simnet::Host& refuser = net.add_host("refuser");
  refuser.add_address(IpAddress::must_parse("2001:db8::81"));
  transport::TcpStack refuser_tcp{refuser};
  zone->add_aaaa(refuse, *Ipv6Address::parse("2001:db8::81"));
  zone->add_a(refuse, *Ipv4Address::parse("10.0.0.80"));
  EXPECT_EQ(rendered(run_connect(refuse)),
            (Lines{"dns-query AAAA then A",
                   "dns-response AAAA: 1 records",
                   "address-selection 1 attempts planned",
                   "attempt-start [2001:db8::81]:443",
                   "dns-response A: 1 records",
                   "attempt-failed [2001:db8::81]:443: refused",
                   "attempt-start 10.0.0.80:443",
                   "established 10.0.0.80:443"}));

  // The only address refuses: every attempt failed.
  const auto refuse_only = N("refuse-only.he.lab");
  zone->add_aaaa(refuse_only, *Ipv6Address::parse("2001:db8::81"));
  EXPECT_EQ(rendered(run_connect(refuse_only)),
            (Lines{"dns-query AAAA then A",
                   "dns-response AAAA: 1 records",
                   "address-selection 1 attempts planned",
                   "attempt-start [2001:db8::81]:443",
                   "dns-response A: 0 records",
                   "attempt-failed [2001:db8::81]:443: refused",
                   "failed all connection attempts failed"}));

  // Nothing answers in time: overall timeout.
  const auto dark = N("dark.he.lab");
  add_records(dark, 1, 1, /*responsive=*/false);
  HeOptions slow = HeOptions::rfc8305();
  slow.tcp.syn_rto = sec(60);
  slow.overall_timeout = sec(3);
  engine->set_options(slow);
  EXPECT_EQ(rendered(run_connect(dark)),
            (Lines{"dns-query AAAA then A",
                   "dns-response AAAA: 1 records",
                   "address-selection 1 attempts planned",
                   "attempt-start [2001:db8:dead::1]:443",
                   "dns-response A: 1 records",
                   "attempt-start 10.9.9.1:443",
                   "failed overall timeout"}));

  // A configuration error fails the session at its start.
  HeOptions invalid = HeOptions::rfc8305();
  invalid.first_address_family_count = 0;
  engine->set_options(invalid);
  EXPECT_EQ(
      rendered(run_connect(N("www.he.lab"))),
      Lines{"failed configuration: first_address_family_count must be >= 1 "
            "(got 0)"});

  // The A lookup times out: a DNS error, then "A lookup failed".
  const auto late_a = N("d9000-a.fail.he.lab");
  add_records(late_a);
  dns::StubOptions fast;
  fast.servers = {{IpAddress::must_parse("10.0.0.53"), 53}};
  fast.timeout = sec(1);
  fast.attempts_per_server = 1;
  dns::StubResolver fast_stub{client_host, fast};
  HappyEyeballsEngine chrome{client_host, fast_stub, *client_tcp};
  HeOptions o = HeOptions::rfc8305();
  o.resolution_delay = std::nullopt;
  o.wait_for_a_record = true;
  o.fail_on_a_timeout = true;
  chrome.set_options(o);
  HeResult failed;
  chrome.connect(late_a, 443, [&](const HeResult& r) { failed = r; });
  net.loop().run();
  EXPECT_EQ(rendered(failed),
            (Lines{"dns-query AAAA then A",
                   "dns-response AAAA: 1 records",
                   "dns-error A: all servers failed",
                   "failed A lookup failed"}));
}

TEST(HeDetailTest, SizeIsTheRenderedLength) {
  const simnet::Endpoint longest{
      IpAddress::must_parse("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
      65535};
  for (int t = 0; t <= static_cast<int>(HeEventType::kFailed); ++t) {
    HeDetail detail;
    detail.type = static_cast<HeEventType>(t);
    detail.rr_type = dns::RrType::kAaaa;
    detail.count = UINT64_MAX;
    detail.duration = ms(1500);
    detail.endpoint = longest;
    detail.error = "all servers failed";
    EXPECT_EQ(detail.size(), detail.text().size())
        << he_event_type_name(detail.type);
  }
}

TEST(HeOptionsValidateTest, AcceptsAllPresets) {
  EXPECT_TRUE(HeOptions::rfc6555().validate().ok());
  EXPECT_TRUE(HeOptions::rfc8305().validate().ok());
  EXPECT_TRUE(HeOptions::none().validate().ok());
}

TEST(HeOptionsValidateTest, RejectsDegenerateParameters) {
  HeOptions o = HeOptions::rfc8305();
  o.first_address_family_count = 0;
  EXPECT_FALSE(o.validate().ok());

  o = HeOptions::rfc8305();
  o.max_addresses_per_family = 0;
  EXPECT_FALSE(o.validate().ok());

  o = HeOptions::rfc8305();
  o.resolution_delay = ms(-50);
  EXPECT_FALSE(o.validate().ok());
  o.resolution_delay = std::nullopt;  // "no RD" stays a valid configuration
  EXPECT_TRUE(o.validate().ok());

  o = HeOptions::rfc8305();
  o.connection_attempt_delay = ms(-250);
  EXPECT_FALSE(o.validate().ok());

  o = HeOptions::rfc8305();
  o.overall_timeout = SimTime{0};
  EXPECT_FALSE(o.validate().ok());
}

TEST_F(EngineFixture, InvalidConfigurationFailsTheSessionAtStart) {
  HeOptions o = HeOptions::rfc8305();
  o.first_address_family_count = 0;
  engine->set_options(o);

  const auto result = run_connect(N("www.he.lab"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("configuration"), std::string::npos);
  EXPECT_NE(result.error.find("first_address_family_count"),
            std::string::npos);
  EXPECT_EQ(engine->active_sessions(), 0u);  // session fully torn down

  // A negative resolution delay is caught the same way.
  o = HeOptions::rfc8305();
  o.resolution_delay = ms(-1);
  engine->set_options(o);
  const auto rd_result = run_connect(N("www.he.lab"));
  EXPECT_FALSE(rd_result.ok);
  EXPECT_NE(rd_result.error.find("resolution_delay"), std::string::npos);
}

}  // namespace
}  // namespace lazyeye::he
