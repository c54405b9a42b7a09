// Conformance layer tests: seeded fault plans, the interposing hooks on the
// transport/DNS stacks, the RFC 8305 rule evaluations, and the differential
// harness (worker-count determinism + one-line replay).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/fault.h"
#include "conformance/injector.h"
#include "conformance/rules.h"
#include "dns/auth_server.h"
#include "dns/client.h"
#include "simnet/network.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "util/crc32.h"
#include "util/strings.h"

namespace lazyeye::conformance {
namespace {

using simnet::Family;
using simnet::IpAddress;

// ------------------------------------------------------------ fault plans ----

TEST(FaultPlanTest, SeedIsDeterministicAndSensitiveToEveryTripleField) {
  const FaultPlan base{FaultKind::kTcpReset, 5, 2, 9};
  EXPECT_EQ(base.rng_seed(), FaultPlan(base).rng_seed());

  std::set<std::uint64_t> seeds;
  seeds.insert(base.rng_seed());
  for (FaultPlan p : {FaultPlan{FaultKind::kTcpBlackhole, 5, 2, 9},
                      FaultPlan{FaultKind::kTcpReset, 6, 2, 9},
                      FaultPlan{FaultKind::kTcpReset, 5, 3, 9},
                      FaultPlan{FaultKind::kTcpReset, 5, 2, 10}}) {
    EXPECT_TRUE(seeds.insert(p.rng_seed()).second) << p.repro();
  }
}

TEST(FaultPlanTest, ReproLineAndNameRoundTrip) {
  const FaultPlan plan{FaultKind::kDnsSpoof, 42, 3, 17};
  EXPECT_EQ(plan.repro(), "fault=dns-spoof seed=42 stream=3 index=17");
  for (const FaultKind kind : all_fault_kinds()) {
    EXPECT_EQ(fault_kind_from_name(fault_kind_name(kind)), kind);
  }
  EXPECT_FALSE(fault_kind_from_name("no-such-fault"));
}

// ------------------------------------------------- transport interposers ----

struct TransportHookFixture : ::testing::Test {
  TransportHookFixture()
      : net{3}, client_host{net.add_host("client")},
        server_host{net.add_host("server")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.1"));
    client_host.add_address(IpAddress::must_parse("2001:db8::1"));
    server_host.add_address(IpAddress::must_parse("10.0.0.2"));
    server_host.add_address(IpAddress::must_parse("2001:db8::2"));
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
};

TEST_F(TransportHookFixture, TcpResetActionRefusesHandshake) {
  transport::TcpStack client{client_host};
  transport::TcpStack server{server_host};
  server.listen(443);
  server.set_accept_interposer([](const simnet::Endpoint&, std::uint16_t) {
    return transport::AcceptAction::kReset;
  });
  transport::ConnectResult result;
  client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                 [&](const transport::ConnectResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  // The RST answer makes this a fast refusal, not a retry-until-timeout.
  EXPECT_EQ(net.loop().now(), 2 * net.base_delay());
}

TEST_F(TransportHookFixture, TcpDropActionBlackholesTheSyn) {
  transport::TcpStack client{client_host};
  transport::TcpStack server{server_host};
  server.listen(443);
  int calls = 0;
  server.set_accept_interposer([&](const simnet::Endpoint&, std::uint16_t) {
    ++calls;
    return transport::AcceptAction::kDrop;
  });
  transport::ConnectResult result;
  client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                 [&](const transport::ConnectResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  // Every SYN retransmission hit the interposer and was swallowed.
  EXPECT_GT(calls, 1);
}

TEST_F(TransportHookFixture, TcpAcceptThenResetCompletesThenKills) {
  transport::TcpStack client{client_host};
  transport::TcpStack server{server_host};
  server.listen(443);
  server.set_accept_interposer([](const simnet::Endpoint&, std::uint16_t) {
    return transport::AcceptAction::kAcceptThenReset;
  });
  transport::ConnectResult result;
  bool data_delivered = false;
  client.set_data_handler(
      [&](std::uint64_t, std::span<const std::uint8_t>) {
        data_delivered = true;
      });
  client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                 [&](const transport::ConnectResult& r) {
                   result = r;
                   // The handshake looked fine from the client; data sent
                   // into the chasing RST must go nowhere (conn torn down).
                   client.send_data(r.connection_id, {1, 2, 3});
                 });
  net.loop().run();
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(data_delivered);
}

TEST_F(TransportHookFixture, QuicDropAndResetActions) {
  for (const auto action : {transport::AcceptAction::kDrop,
                            transport::AcceptAction::kReset}) {
    transport::QuicStack client{client_host};
    transport::QuicStack server{server_host};
    server.listen(443);
    server.set_accept_interposer(
        [action](const simnet::Endpoint&, std::uint16_t) { return action; });
    transport::ConnectResult result;
    bool done = false;
    client.connect({IpAddress::must_parse("10.0.0.2"), 443},
                   [&](const transport::ConnectResult& r) {
                     result = r;
                     done = true;
                   });
    net.loop().run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(result.ok);
  }
}

TEST_F(TransportHookFixture, InterposerReturningAcceptIsTransparent) {
  transport::TcpStack client{client_host};
  transport::TcpStack server{server_host};
  server.listen(443);
  server.set_accept_interposer([](const simnet::Endpoint&, std::uint16_t) {
    return transport::AcceptAction::kAccept;
  });
  transport::ConnectResult result;
  client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                 [&](const transport::ConnectResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.handshake_time(), 2 * net.base_delay());
}

// ------------------------------------------------------ DNS interposer ----

struct DnsHookFixture : ::testing::Test {
  DnsHookFixture()
      : net{7}, client_host{net.add_host("client")},
        server_host{net.add_host("server")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.1"));
    server_host.add_address(IpAddress::must_parse("10.0.0.2"));
    auth = std::make_unique<dns::AuthServer>(server_host);
    dns::Zone& zone = auth->add_zone(dns::DnsName::must_parse("conf.lab"));
    name = dns::DnsName::must_parse("www.conf.lab");
    zone.add_a(name, *simnet::Ipv4Address::parse("10.0.0.2"));
    client = std::make_unique<dns::DnsClient>(client_host);
  }

  dns::QueryOutcome ask(SimTime timeout = sec(2)) {
    dns::QueryOutcome out;
    dns::DnsClientOptions options;
    options.timeout = timeout;
    client->query({IpAddress::must_parse("10.0.0.2"), 53}, name,
                  dns::RrType::kA, options,
                  [&](const dns::QueryOutcome& o) { out = o; });
    net.loop().run();
    return out;
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
  std::unique_ptr<dns::AuthServer> auth;
  std::unique_ptr<dns::DnsClient> client;
  dns::DnsName name;
};

TEST_F(DnsHookFixture, DropDirectiveSuppressesTheResponse) {
  auth->set_response_interposer([](const dns::DnsMessage&, dns::DnsMessage&,
                                   SimTime&, dns::ResponseDirectives& out) {
    out.drop = true;
  });
  const auto outcome = ask();
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "timeout");
}

TEST_F(DnsHookFixture, MutateWireTruncationIsIgnoredByTheClient) {
  FaultPlan plan{FaultKind::kDnsTruncate};
  auto rng = std::make_shared<SplitMix64>(plan.rng_seed());
  auth->set_response_interposer(
      [rng](const dns::DnsMessage&, dns::DnsMessage&, SimTime&,
            dns::ResponseDirectives& out) {
        out.mutate_wire = [rng](std::vector<std::uint8_t>& wire) {
          truncate_wire(wire, *rng);
        };
      });
  const auto outcome = ask();
  // The truncated datagram fails to decode (or decodes to a non-matching
  // message); either way the client never treats it as the answer.
  EXPECT_FALSE(outcome.ok);
}

TEST_F(DnsHookFixture, SpoofedExtraDatagramLosesToTheRealAnswer) {
  bool spoofed = false;
  auth->set_response_interposer(
      [&](const dns::DnsMessage& query, dns::DnsMessage& response, SimTime&,
          dns::ResponseDirectives& out) {
        dns::DnsMessage spoof = response;
        spoof.header.id = static_cast<std::uint16_t>(query.header.id ^ 0x5a5a);
        spoof.answers.clear();
        spoof.answers.push_back(dns::ResourceRecord::a(
            query.questions.front().name,
            *simnet::Ipv4Address::parse("192.0.2.66")));
        out.extra.push_back({spoof.encode(), SimTime{0}});
        spoofed = true;
      });
  const auto outcome = ask();
  ASSERT_TRUE(spoofed);
  ASSERT_TRUE(outcome.ok);
  // The wrong-id spoof was ignored; the genuine answer won.
  std::vector<IpAddress> addrs;
  outcome.response.addresses_for_into(name, dns::RrType::kA, addrs);
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0].to_string(), "10.0.0.2");
}

TEST_F(DnsHookFixture, DelayDirectivePostponesTheAnswer) {
  auth->set_response_interposer([](const dns::DnsMessage&, dns::DnsMessage&,
                                   SimTime& delay,
                                   dns::ResponseDirectives&) {
    delay = delay + ms(150);
  });
  const auto outcome = ask();
  ASSERT_TRUE(outcome.ok);
  EXPECT_GE(outcome.rtt, ms(150));
}

TEST_F(DnsHookFixture, InjectorLeavesHooksUnsetForTransportKinds) {
  FaultInjector injector{FaultPlan{FaultKind::kTcpReset}};
  injector.attach(*auth);  // TCP kind: the DNS fast path must stay hook-free
  const auto outcome = ask();
  EXPECT_TRUE(outcome.ok);
}

// ------------------------------------------------------------ rule units ----

capture::ConnectionAttempt attempt(SimTime at, const char* addr,
                                   bool refused = false) {
  capture::ConnectionAttempt a;
  a.first_syn = at;
  a.last_syn = at;
  a.remote = {IpAddress::must_parse(addr), 443};
  a.refused = refused;
  return a;
}

capture::DnsExchange exchange(SimTime at, dns::RrType qtype,
                              std::optional<SimTime> response,
                              std::size_t answers = 1) {
  capture::DnsExchange ex;
  ex.query_time = at;
  ex.qtype = qtype;
  ex.response_time = response;
  ex.answer_count = answers;
  return ex;
}

Verdict verdict_for(const RuleContext& ctx, const std::string& rule) {
  for (const Verdict& v : evaluate_rules(ctx)) {
    if (rule_name(v.rule) == rule) return v;
  }
  ADD_FAILURE() << "no rule named " << rule;
  return {};
}

RuleOutcome verdict_for_record(const ConformanceRecord& record,
                               const std::string& rule) {
  for (const Verdict& v : record.verdicts) {
    if (rule_name(v.rule) == rule) return v.outcome;
  }
  ADD_FAILURE() << "no rule named " << rule;
  return RuleOutcome::kInapplicable;
}

TEST(RuleTest, ResolutionDelayViolatedWhenV4RacesAheadOfAaaa) {
  RuleContext ctx;
  ctx.first_a_response = ms(10);
  ctx.first_v4_syn = ms(20);  // only 10 ms after A, AAAA still outstanding
  EXPECT_EQ(verdict_for(ctx, "resolution-delay").outcome,
            RuleOutcome::kViolate);

  ctx.first_v4_syn = ms(70);  // waited the full 50 ms reference RD
  EXPECT_EQ(verdict_for(ctx, "resolution-delay").outcome, RuleOutcome::kPass);

  ctx.first_aaaa_response = ms(5);  // AAAA answered first: nothing to wait for
  EXPECT_EQ(verdict_for(ctx, "resolution-delay").outcome,
            RuleOutcome::kInapplicable);
}

TEST(RuleTest, AttemptSpacingSkipsGapsAfterRefusedAttempts) {
  RuleContext ctx;
  // 2 ms gap, but the first attempt was refused — RFC 8305 allows moving on
  // immediately, so the gap is exempt and the rule is inapplicable (no
  // racing gap remains to judge).
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10", /*refused=*/true));
  ctx.attempts.push_back(attempt(ms(2), "10.0.0.10"));
  EXPECT_EQ(verdict_for(ctx, "attempt-spacing").outcome,
            RuleOutcome::kInapplicable);

  // The same 2 ms gap while the first attempt is still pending: violation.
  ctx.attempts[0].refused = false;
  EXPECT_EQ(verdict_for(ctx, "attempt-spacing").outcome,
            RuleOutcome::kViolate);

  // 100 ms gap within [10ms, 2s]: pass.
  ctx.attempts[1].first_syn = ms(100);
  EXPECT_EQ(verdict_for(ctx, "attempt-spacing").outcome, RuleOutcome::kPass);

  // 15 s gap (wget-style serial retry): violation on the maximum bound.
  ctx.attempts[1].first_syn = sec(15);
  EXPECT_EQ(verdict_for(ctx, "attempt-spacing").outcome,
            RuleOutcome::kViolate);
}

TEST(RuleTest, FamilyInterleaveFlagsSameFamilyRuns) {
  RuleContext ctx;
  ctx.v4_candidates = 2;
  ctx.v6_candidates = 2;
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10"));
  ctx.attempts.push_back(attempt(ms(50), "2001:db8::11"));  // v6 again
  EXPECT_EQ(verdict_for(ctx, "family-interleave").outcome,
            RuleOutcome::kViolate);

  // Alternating families passes.
  ctx.attempts[1] = attempt(ms(50), "10.0.0.10");
  EXPECT_EQ(verdict_for(ctx, "family-interleave").outcome, RuleOutcome::kPass);

  // A same-family run is fine once the other family is exhausted.
  ctx.v4_candidates = 1;
  ctx.attempts.push_back(attempt(ms(100), "2001:db8::11"));
  ctx.attempts.push_back(attempt(ms(150), "2001:db8::12"));
  EXPECT_EQ(verdict_for(ctx, "family-interleave").outcome, RuleOutcome::kPass);
}

TEST(RuleTest, LosingFamilyRequiresBothFamiliesTriedBeforeGivingUp) {
  RuleContext ctx;
  ctx.dns.push_back(exchange(ms(0), dns::RrType::kA, ms(5)));
  ctx.dns.push_back(exchange(ms(0), dns::RrType::kAaaa, ms(5)));
  ctx.attempts.push_back(attempt(ms(10), "2001:db8::10"));
  // Failed overall, only v6 ever tried: premature abandonment of v4.
  EXPECT_EQ(verdict_for(ctx, "losing-family").outcome, RuleOutcome::kViolate);

  ctx.attempts.push_back(attempt(ms(260), "10.0.0.10"));
  EXPECT_EQ(verdict_for(ctx, "losing-family").outcome, RuleOutcome::kPass);

  // An established connection ends the situation.
  ctx.established = Family::kIpv6;
  EXPECT_EQ(verdict_for(ctx, "losing-family").outcome,
            RuleOutcome::kInapplicable);
}

TEST(RuleTest, RestartCacheFlagsRequeriesAfterTheFirstFetch) {
  RuleContext ctx;
  ctx.fetches = 2;
  ctx.first_fetch_ok = true;
  ctx.first_fetch_completed = ms(100);
  ctx.dns.push_back(exchange(ms(0), dns::RrType::kA, ms(5)));
  ctx.dns.push_back(exchange(ms(0), dns::RrType::kAaaa, ms(5)));
  EXPECT_EQ(verdict_for(ctx, "restart-cache").outcome, RuleOutcome::kPass);

  ctx.dns.push_back(exchange(ms(120), dns::RrType::kA, ms(125)));
  EXPECT_EQ(verdict_for(ctx, "restart-cache").outcome, RuleOutcome::kViolate);

  ctx.fetches = 1;
  EXPECT_EQ(verdict_for(ctx, "restart-cache").outcome,
            RuleOutcome::kInapplicable);
}

TEST(RuleTest, AbortOnWinnerFlagsRetransmitsAfterEstablishment) {
  RuleContext ctx;
  ctx.established = Family::kIpv6;
  ctx.established_time = ms(100);
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10"));
  ctx.attempts[0].established = true;
  ctx.attempts.push_back(attempt(ms(50), "10.0.0.10"));
  // Loser went silent before the winner established: pass.
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome, RuleOutcome::kPass);

  // Loser retransmitted its SYN 400 ms after the winner completed: the
  // attempt was never aborted.
  ctx.attempts[1].last_syn = ms(500);
  ctx.attempts[1].syn_count = 2;
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome,
            RuleOutcome::kViolate);
}

TEST(RuleTest, AbortOnWinnerFlagsAttemptsStartedAfterEstablishment) {
  RuleContext ctx;
  ctx.established = Family::kIpv4;
  ctx.established_time = ms(60);
  ctx.attempts.push_back(attempt(ms(0), "10.0.0.10"));
  ctx.attempts[0].established = true;
  // A brand-new attempt opened after the winner: violation.
  ctx.attempts.push_back(attempt(ms(90), "2001:db8::10"));
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome,
            RuleOutcome::kViolate);
}

TEST(RuleTest, AbortOnWinnerInapplicableWithoutWinnerOrRivals) {
  RuleContext ctx;
  // Never established: the clause never triggers.
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10"));
  ctx.attempts.push_back(attempt(ms(50), "10.0.0.10"));
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome,
            RuleOutcome::kInapplicable);

  // Single attempt that won: nothing pending to abort.
  ctx.attempts.clear();
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10"));
  ctx.attempts[0].established = true;
  ctx.established = Family::kIpv6;
  ctx.established_time = ms(30);
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome,
            RuleOutcome::kInapplicable);
}

TEST(RuleTest, EvidenceSentencesKeepTheirText) {
  // Verdicts are values; render_evidence writes the sentences the verdict
  // table and the probe print. These are the texts the rules wrote when
  // evidence was a string, for every sentence that prints a duration.
  const auto rendered = [](const RuleContext& ctx) {
    std::vector<std::string> out;
    for (const Verdict& v : evaluate_rules(ctx)) {
      out.push_back(str_cat(rule_outcome_symbol(v.outcome), ' ',
                            rule_name(v.rule), ": ", render_evidence(v)));
    }
    return out;
  };
  RuleContext raced;
  raced.fetches = 2;
  raced.first_fetch_ok = true;
  raced.first_fetch_completed = ms(5);
  raced.v4_candidates = 2;
  raced.v6_candidates = 2;
  raced.dns = {exchange(ms(0), dns::RrType::kA, ms(10)),
               exchange(ms(0), dns::RrType::kAaaa, ms(200))};
  raced.attempts = {attempt(ms(20), "10.0.0.10"),
                    attempt(ms(22), "10.0.0.11")};
  raced.first_a_response = ms(10);
  raced.first_aaaa_response = ms(200);
  raced.first_v4_syn = ms(20);
  EXPECT_EQ(rendered(raced),
            (std::vector<std::string>{
                "V resolution-delay: connected v4 10ms after the A answer "
                "with AAAA outstanding (RD >= 50ms)",
                "V attempt-spacing: attempts 0 and 1 spaced 2ms (< 10ms "
                "minimum CAD)",
                "V family-interleave: attempts 0 and 1 both IPv4 while IPv6 "
                "addresses were untried",
                "V losing-family: failed with only IPv4 attempted; IPv6 never "
                "tried despite resolved addresses",
                "P restart-cache: restart reused the session's cached winner "
                "(no re-query)",
                "- abort-on-winner: no connection ever won",
            }));

  RuleContext won = raced;
  won.attempts = {attempt(ms(0), "2001:db8::10"), attempt(ms(50), "10.0.0.10")};
  won.attempts[0].established = true;
  won.attempts[1].last_syn = ms(500);
  won.established = Family::kIpv6;
  won.established_time = ms(100);
  won.first_v4_syn = ms(70);
  won.first_aaaa_response.reset();
  EXPECT_EQ(rendered(won),
            (std::vector<std::string>{
                "P resolution-delay: waited 60ms (>= 50ms) for AAAA",
                "P attempt-spacing: 1 racing gap(s) within [10ms, 2s]",
                "P family-interleave: 2 attempts interleaved by family",
                "- losing-family: connection established, no abandonment "
                "situation",
                "P restart-cache: restart reused the session's cached winner "
                "(no re-query)",
                "V abort-on-winner: attempt 1 (IPv4) still retransmitting "
                "400ms after the winner established (never aborted)",
            }));

  RuleContext late = won;  // a rival opened after the win
  late.attempts[1].first_syn = ms(130);
  late.attempts[1].last_syn = ms(130);
  EXPECT_EQ(rendered(late).back(),
            "V abort-on-winner: attempt 1 (IPv4) started 30ms after a "
            "connection was established");

  RuleContext slow = raced;  // a gap past the maximum CAD, and a re-query
  slow.attempts[1] = attempt(sec(15) + ms(170), "2001:db8::10");
  slow.dns.push_back(exchange(ms(6), dns::RrType::kAaaa, ms(7)));
  const std::vector<std::string> slow_text = rendered(slow);
  EXPECT_EQ(slow_text[1],
            "V attempt-spacing: attempts 0 and 1 spaced 15.15s (> 2s maximum "
            "CAD)");
  EXPECT_EQ(slow_text[4],
            "V restart-cache: 1 DNS queries after the first fetch completed "
            "within the cache TTL");
}

// ------------------------------------------------------------- harness ----

clients::ClientProfile profile_named(const std::string& display) {
  const auto p = clients::find_client_profile(display);
  EXPECT_TRUE(p) << display;
  return *p;
}

TEST(HarnessTest, ControlCellIsCleanForAnHappyEyeballsClient) {
  const ConformanceHarness harness;
  const auto record = harness.replay(profile_named("Chrome 130.0"),
                                     FaultPlan{FaultKind::kNone});
  EXPECT_TRUE(record.fetch_ok);
  EXPECT_EQ(record.violations(), 0) << record.symbols();
  ASSERT_EQ(record.verdicts.size(), rfc8305_rules().size());
}

TEST(HarnessTest, WgetViolatesRestartCacheAndLosingFamily) {
  const ConformanceHarness harness;
  const auto profile = profile_named("wget 1.21.3");

  // No-fault restart: wget re-resolves on the second fetch (no HE winner
  // cache), so the restart-cache rule flags it even in the control cell.
  const auto control = harness.replay(profile, FaultPlan{FaultKind::kNone});
  EXPECT_TRUE(control.fetch_ok);
  EXPECT_EQ(verdict_for_record(control, "restart-cache"),
            RuleOutcome::kViolate);

  // v6 SYNs answered with RSTs: wget retries serially and gives up without
  // ever touching its resolved v4 addresses.
  const auto reset = harness.replay(profile, FaultPlan{FaultKind::kTcpReset});
  EXPECT_FALSE(reset.fetch_ok);
  EXPECT_EQ(verdict_for_record(reset, "losing-family"), RuleOutcome::kViolate);
}

TEST(HarnessTest, ReplayReproducesTheCampaignCell) {
  const ConformanceHarness harness{{.seed = 1}};
  const std::vector<clients::ClientProfile> profiles{
      profile_named("Chrome 130.0"), profile_named("wget 1.21.3")};
  const auto specs = harness.differential_specs(profiles);

  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, profiles);
  campaign::CollectingSink<ConformanceRecord> sink;
  registry.run(campaign::CampaignRunner{{.workers = 1}}, specs, sink);
  const auto& result = sink.result();

  // Every campaign cell replays bit-for-bit from its (seed, stream, index)
  // triple — the property the verdict table's repro lines rely on.
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const ConformanceRecord& cell = result.outcomes[i];
    const auto replayed = harness.replay(profile_named(cell.client),
                                         cell.fault, cell.fetches);
    EXPECT_EQ(replayed.symbols(), cell.symbols()) << cell.fault.repro();
    EXPECT_EQ(replayed.fetch_ok, cell.fetch_ok) << cell.fault.repro();
    for (std::size_t r = 0; r < cell.verdicts.size(); ++r) {
      EXPECT_EQ(render_evidence(replayed.verdicts[r]),
                render_evidence(cell.verdicts[r]))
          << cell.fault.repro();
    }
  }
}

TEST(HarnessTest, VerdictTableIsByteIdenticalAcrossWorkerCounts) {
  const ConformanceHarness harness{{.seed = 1}};
  const std::vector<clients::ClientProfile> profiles{
      profile_named("Chrome 130.0"), profile_named("Firefox 132.0"),
      profile_named("wget 1.21.3")};
  const auto specs = harness.differential_specs(profiles);

  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, profiles);

  std::string baseline;
  for (const int workers : {1, 2, 4, 8}) {
    VerdictTableSink sink;
    registry.run(campaign::CampaignRunner{{.workers = workers}}, specs, sink);
    EXPECT_EQ(sink.cells(), specs.size());
    if (workers == 1) {
      baseline = sink.text();
      EXPECT_GT(sink.total_violations(), 0);  // wget guarantees material
    } else {
      EXPECT_EQ(sink.text(), baseline) << "workers=" << workers;
    }
  }
}

TEST(HarnessTest, DifferentialVerdictTableDigestIsPinned) {
  // The seed-1 differential matrix over every local-testbed profile: a
  // pinned digest of the verdict table, so any change to the world, the
  // clients or the rules that moves one byte of it shows up here.
  const ConformanceHarness harness{{.seed = 1}};
  const auto profiles = clients::local_testbed_profiles();
  const auto specs = harness.differential_specs(profiles);
  ASSERT_EQ(specs.size(), 187u);

  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, profiles);
  VerdictTableSink sink;
  registry.run(campaign::CampaignRunner{{.workers = 2}}, specs, sink);
  EXPECT_EQ(util::crc32(sink.text()), 0x7b52dc03u) << sink.text();
}

TEST(HarnessTest, QuicDropCellsMatchTheControlCells) {
  // No client connects over QUIC, so dropping the server's QUIC Initials
  // changes nothing: each quic-drop cell of the seed-1 differential matrix
  // has the verdicts and fetch results of its profile's control cell. A
  // client path that starts reaching the server's QuicStack fails here.
  const ConformanceHarness harness{{.seed = 1}};
  const auto profiles = clients::local_testbed_profiles();
  const auto specs = harness.differential_specs(profiles);

  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, profiles);
  campaign::CollectingSink<ConformanceRecord> sink;
  registry.run(campaign::CampaignRunner{{.workers = 2}}, specs, sink);
  const auto& records = sink.result().outcomes;

  std::size_t compared = 0;
  for (const ConformanceRecord& drop : records) {
    if (drop.fault.kind != FaultKind::kQuicDrop) continue;
    const auto control = std::find_if(
        records.begin(), records.end(), [&](const ConformanceRecord& r) {
          return r.fault.kind == FaultKind::kNone && r.client == drop.client;
        });
    ASSERT_NE(control, records.end()) << drop.client;
    EXPECT_EQ(drop.verdicts, control->verdicts)
        << drop.client << ": " << drop.symbols() << " vs "
        << control->symbols();
    EXPECT_EQ(drop.fetch_ok, control->fetch_ok) << drop.client;
    EXPECT_EQ(drop.first_fetch_ok, control->first_fetch_ok) << drop.client;
    ++compared;
  }
  EXPECT_EQ(compared, profiles.size());
}

}  // namespace
}  // namespace lazyeye::conformance
