// Local testbed framework tests: CAD sweeps, RD cases, address selection,
// Table-2 feature detection — the paper's client findings reproduced through
// the black-box measurement pipeline.
#include <gtest/gtest.h>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/sink.h"
#include "clients/profiles.h"
#include "testbed/features.h"
#include "dns/test_params.h"
#include "testbed/testbed.h"
#include "testbed/world.h"
#include "util/crc32.h"
#include "util/strings.h"

namespace lazyeye::testbed {
namespace {

using clients::ClientProfile;
using simnet::Family;

TEST(SweepSpecTest, ValueGeneration) {
  const auto values = SweepSpec{ms(0), ms(20), ms(5)}.values();
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(values.front(), ms(0));
  EXPECT_EQ(values.back(), ms(20));
  EXPECT_EQ((SweepSpec{ms(7), ms(7), ms(0)}.values().size()), 1u);
}

TEST(SweepSpecTest, NonPositiveStepCollapsesToSinglePoint) {
  // A zero or negative step must not loop forever.
  EXPECT_EQ((SweepSpec{ms(10), ms(40), ms(0)}.values()),
            (std::vector<SimTime>{ms(10)}));
  EXPECT_EQ((SweepSpec{ms(10), ms(40), ms(-5)}.values()),
            (std::vector<SimTime>{ms(10)}));
}

TEST(SweepSpecTest, InvertedRangeCollapsesToSinglePoint) {
  // to < from must not silently produce an empty sweep.
  EXPECT_EQ((SweepSpec{ms(40), ms(10), ms(5)}.values()),
            (std::vector<SimTime>{ms(40)}));
}

TEST(SweepSpecTest, PaperGrids) {
  EXPECT_EQ(SweepSpec::fine_cad().values().size(), 81u);  // 0..400 step 5
}

struct TestbedFixture : ::testing::Test {
  LocalTestbed testbed;
};

TEST_F(TestbedFixture, ZeroDelayEstablishesV6) {
  const auto rec = testbed.run_cad_case(
      clients::chromium_profile("Chrome", "130.0", ""), SimTime{0});
  EXPECT_TRUE(rec.fetch_ok);
  EXPECT_EQ(rec.established_family, Family::kIpv6);
  EXPECT_TRUE(rec.aaaa_query_first);
}

TEST_F(TestbedFixture, ChromiumCadIs300ms) {
  // Below the CAD: IPv6 wins. Above: IPv4, and the capture shows 300 ms.
  const auto below = testbed.run_cad_case(
      clients::chromium_profile("Chrome", "130.0", ""), ms(250));
  EXPECT_EQ(below.established_family, Family::kIpv6);

  const auto above = testbed.run_cad_case(
      clients::chromium_profile("Chrome", "130.0", ""), ms(350));
  EXPECT_EQ(above.established_family, Family::kIpv4);
  ASSERT_TRUE(above.observed_cad);
  EXPECT_EQ(*above.observed_cad, ms(300));
}

TEST_F(TestbedFixture, CurlCadIs200ms) {
  const auto rec = testbed.run_cad_case(clients::curl_profile(), ms(350));
  EXPECT_EQ(rec.established_family, Family::kIpv4);
  ASSERT_TRUE(rec.observed_cad);
  EXPECT_EQ(*rec.observed_cad, ms(200));
}

TEST_F(TestbedFixture, FirefoxCadIs250ms) {
  // Use repetition majority: Firefox has occasional outliers.
  std::vector<SimTime> cads;
  for (int rep = 0; rep < 5; ++rep) {
    const auto rec = testbed.run_cad_case(
        clients::firefox_profile("132.0", "10-2024"), ms(400), rep);
    if (rec.observed_cad) cads.push_back(*rec.observed_cad);
  }
  ASSERT_FALSE(cads.empty());
  int at_250 = 0;
  for (const auto cad : cads) {
    if (cad == ms(250)) ++at_250;
    EXPECT_GE(cad, ms(250));  // outliers only wait longer (§5.1)
  }
  EXPECT_GT(at_250, 0);
}

TEST_F(TestbedFixture, SafariLabCadIsTwoSeconds) {
  const auto below = testbed.run_cad_case(clients::safari_profile("17.6"),
                                          ms(1800));
  EXPECT_EQ(below.established_family, Family::kIpv6);
  const auto above = testbed.run_cad_case(clients::safari_profile("17.6"),
                                          ms(2300));
  EXPECT_EQ(above.established_family, Family::kIpv4);
  ASSERT_TRUE(above.observed_cad);
  EXPECT_EQ(*above.observed_cad, sec(2));
}

TEST_F(TestbedFixture, WgetNeverFallsBack) {
  // Figure 2: wget stays on IPv6 for any delay (the SYN-ACK is merely
  // late); with a *blackholed* IPv6 it fails without trying IPv4.
  const auto delayed = testbed.run_cad_case(clients::wget_profile(), ms(400));
  EXPECT_EQ(delayed.established_family, Family::kIpv6);

  const auto sel = testbed.run_address_selection_case(clients::wget_profile(), 10);
  EXPECT_FALSE(sel.fetch_ok);
  EXPECT_EQ(sel.v4_addresses_used, 0);
  EXPECT_EQ(sel.v6_addresses_used, 1);
}

TEST_F(TestbedFixture, RdCaseSafariUsesFiftyMs) {
  const auto rec = testbed.run_rd_case(clients::safari_profile("17.6"),
                                       dns::RrType::kAaaa, ms(600));
  EXPECT_EQ(rec.established_family, Family::kIpv4);
  ASSERT_TRUE(rec.observed_rd);
  EXPECT_EQ(*rec.observed_rd, ms(50));
}

TEST_F(TestbedFixture, RdCaseChromiumWaitsForResolverTimeout) {
  // AAAA delayed by 600 ms (below the 5 s stub timeout): Chromium waits for
  // the AAAA answer and still connects via IPv6 — no RD.
  const auto rec = testbed.run_rd_case(
      clients::chromium_profile("Chrome", "130.0", ""), dns::RrType::kAaaa,
      ms(600));
  EXPECT_EQ(rec.established_family, Family::kIpv6);
  EXPECT_FALSE(rec.observed_rd);
  EXPECT_GE(rec.completion_time, ms(600));
}

TEST_F(TestbedFixture, SlowABlocksV6OnChromium) {
  // §5.2 headline: the A record is slow, AAAA instant — Chromium delays the
  // IPv6 connection until the A answer arrives.
  const auto rec = testbed.run_rd_case(
      clients::chromium_profile("Chrome", "130.0", ""), dns::RrType::kA,
      ms(800));
  EXPECT_EQ(rec.established_family, Family::kIpv6);
  ASSERT_TRUE(rec.a_wait_gap);
  EXPECT_LE(*rec.a_wait_gap, ms(1));
  EXPECT_GE(rec.completion_time, ms(800));
}

TEST_F(TestbedFixture, SlowABeyondResolverTimeoutFailsChromium) {
  // §5.2: "Chrome and Firefox completely failing connections in case of
  // high delays with some resolver configurations."
  TestbedOptions options;
  options.dns_timeout_override = sec(1);
  LocalTestbed strict{options};
  const auto rec = strict.run_rd_case(
      clients::chromium_profile("Chrome", "130.0", ""), dns::RrType::kA,
      sec(3));
  EXPECT_FALSE(rec.fetch_ok);
  EXPECT_FALSE(rec.established_family);
}

TEST_F(TestbedFixture, Hev3FlagFixesSlowAFailure) {
  // The Chromium HEv3 feature flag adds RD and removes the failure mode.
  TestbedOptions options;
  options.dns_timeout_override = sec(1);
  LocalTestbed strict{options};
  const auto rec = strict.run_rd_case(
      clients::chromium_profile("Chrome", "130.0", "", /*hev3_flag=*/true),
      dns::RrType::kA, sec(3));
  EXPECT_TRUE(rec.fetch_ok);
  EXPECT_EQ(rec.established_family, Family::kIpv6);
}

TEST_F(TestbedFixture, SafariNotAffectedBySlowA) {
  const auto rec = testbed.run_rd_case(clients::safari_profile("17.6"),
                                       dns::RrType::kA, ms(800));
  EXPECT_EQ(rec.established_family, Family::kIpv6);
  // Connected as soon as the AAAA answer arrived, not after the A answer.
  EXPECT_LT(rec.completion_time, ms(100));
}

TEST_F(TestbedFixture, AddressSelectionCounts) {
  const auto chrome = testbed.run_address_selection_case(
      clients::chromium_profile("Chrome", "130.0", ""), 10);
  EXPECT_EQ(chrome.v6_addresses_used, 1);
  EXPECT_EQ(chrome.v4_addresses_used, 1);

  const auto safari =
      testbed.run_address_selection_case(clients::safari_profile("17.6"), 10);
  EXPECT_EQ(safari.v6_addresses_used, 10);
  EXPECT_EQ(safari.v4_addresses_used, 10);
  // Interlacing visible: v6 again after the first v4.
  ASSERT_GE(safari.attempt_sequence.size(), 4u);
  EXPECT_EQ(safari.attempt_sequence[0], Family::kIpv6);
  EXPECT_EQ(safari.attempt_sequence[1], Family::kIpv6);
  EXPECT_EQ(safari.attempt_sequence[2], Family::kIpv4);
  EXPECT_EQ(safari.attempt_sequence[3], Family::kIpv6);
}

TEST_F(TestbedFixture, SweepFindsTransitionNearCad) {
  // Sweep curl (CAD 200 ms) from 150 to 250 ms in 25 ms steps: the
  // established family flips between 200 and 225 ms.
  const auto curl = clients::curl_profile();
  campaign::Registry<RunRecord> registry;
  register_executors(registry, testbed, {curl});
  campaign::CollectingSink<RunRecord> sink;
  registry.run(campaign::CampaignRunner{},
               testbed.multi_client_cad_stream(
                   {curl}, SweepSpec{ms(150), ms(250), ms(25)}),
               sink);
  const auto& records = sink.result().outcomes;
  ASSERT_EQ(records.size(), 5u);
  for (const auto& rec : records) {
    const bool expect_v6 = rec.configured_delay <= ms(200);
    EXPECT_EQ(rec.established_family,
              expect_v6 ? Family::kIpv6 : Family::kIpv4)
        << "delay " << format_duration(rec.configured_delay);
  }
}

/// Every RunRecord field as one text line, so a digest covers them all.
std::string record_line(const RunRecord& r) {
  const auto duration = [](const std::optional<SimTime>& t) {
    return t ? format_duration(*t) : std::string{"-"};
  };
  std::string line = str_cat(
      r.client, ' ', format_duration(r.configured_delay), " rep",
      r.repetition, r.fetch_ok ? " ok " : " fail ",
      r.established_family ? simnet::family_name(*r.established_family) : "-",
      " cad=", duration(r.observed_cad), " rd=", duration(r.observed_rd),
      " gap=", duration(r.a_wait_gap), r.aaaa_query_first ? " aaaa" : " a",
      " v6=", r.v6_addresses_used, " v4=", r.v4_addresses_used, " seq=");
  for (const Family f : r.attempt_sequence) {
    line += f == Family::kIpv6 ? '6' : '4';
  }
  str_append(line, " done=", r.completion_time.count(), '\n');
  return line;
}

TEST(TestbedDigestTest, MultiClientCadSweepRecordsArePinned) {
  // A pinned digest of every record of a joint CAD sweep over all
  // local-testbed clients: any change to the world, the clients or the
  // capture analysis that moves one record field shows up here.
  LocalTestbed bed;
  const auto profiles = clients::local_testbed_profiles();
  const auto specs = bed.multi_client_cad_stream(
      profiles, SweepSpec{ms(0), ms(400), ms(100)}, /*repetitions=*/2);
  campaign::Registry<RunRecord> registry;
  register_executors(registry, bed, profiles);
  campaign::CollectingSink<RunRecord> sink;
  registry.run(campaign::CampaignRunner{{.workers = 2}}, specs, sink);

  std::string text;
  for (const RunRecord& r : sink.result().outcomes) text += record_line(r);
  ASSERT_EQ(sink.result().outcomes.size(), specs.size());
  EXPECT_EQ(util::crc32(text), 0x5128fa2du) << text;
}

// ------------------------------------------------------- two-node world ----

/// Builds a world under `origin` whose "www" name has an A and/or AAAA
/// record for the server, fetches it once, and returns the result.
clients::FetchResult fetch_in_world(ClientProfile profile,
                                    std::string_view origin, bool a,
                                    bool aaaa) {
  const dns::DnsName zone = dns::DnsName::must_parse(origin);
  const dns::DnsName name = dns::DnsName::must_parse(str_cat("www.", origin));
  const TwoNodeAddresses& addrs = two_node_addresses();
  const TwoNodeWorld world{
      std::move(profile), zone, cell_net_seed(1, 1), cell_client_seed(1, 1),
      [&](TwoNodeWorld& w) {
        if (a) w.zone->add_a(name, addrs.server_v4.v4());
        if (aaaa) w.zone->add_aaaa(name, addrs.server_v6.v6());
      }};
  clients::FetchResult result;
  world.client->fetch(name, 443, [&](clients::FetchResult r) {
    result = std::move(r);
  });
  world.net->loop().run();
  return result;
}

TEST(TwoNodeWorldTest, TcpAnswersWithTheClientSourceAddressOnEachFamily) {
  const auto v4 = fetch_in_world(clients::curl_profile(), "he-test.lab",
                                 /*a=*/true, /*aaaa=*/false);
  ASSERT_TRUE(v4.response_received);
  EXPECT_EQ(v4.response_text(), "10.0.0.2");

  const auto v6 = fetch_in_world(clients::curl_profile(), "he-test.lab",
                                 /*a=*/false, /*aaaa=*/true);
  ASSERT_TRUE(v6.response_received);
  EXPECT_EQ(v6.response_text(), "2001:db8::2");
}

TEST(TwoNodeWorldTest, AttachSeesTheServerButNoClientYet) {
  bool attached = false;
  const TwoNodeWorld world{
      clients::curl_profile(), dns::DnsName::must_parse("he-test.lab"),
      cell_net_seed(1, 1), cell_client_seed(1, 1), [&](TwoNodeWorld& w) {
        attached = true;
        EXPECT_NE(w.net, nullptr);
        EXPECT_NE(w.server_host, nullptr);
        EXPECT_NE(w.server_tcp, nullptr);
        EXPECT_NE(w.server_quic, nullptr);
        EXPECT_NE(w.auth, nullptr);
        EXPECT_NE(w.zone, nullptr);
        EXPECT_EQ(w.client, nullptr);
      }};
  EXPECT_TRUE(attached);
  EXPECT_NE(world.client, nullptr);
}

TEST(TwoNodeWorldTest, ConformanceStyleWorldFetches) {
  // The conformance checker's world: zone conf.lab, a nonce name with the
  // real server first and an unresponsive decoy per family.
  const dns::DnsName name = dns::make_test_name(
      dns::DnsName::must_parse("run.conf.lab"), "42", {});
  const TwoNodeAddresses& addrs = two_node_addresses();
  const TwoNodeWorld world{
      clients::chromium_profile("Chrome", "130.0", ""),
      dns::DnsName::must_parse("conf.lab"), cell_net_seed(1, 42),
      cell_client_seed(1, 42), [&](TwoNodeWorld& w) {
        w.zone->add_a(name, addrs.server_v4.v4());
        w.zone->add_aaaa(name, addrs.server_v6.v6());
        w.zone->add_a(name, dns::decoy_v4(1));
        w.zone->add_aaaa(name, dns::decoy_v6(1));
      }};
  // The checker analyses the client's packets: it creates the capture.
  const auto* cap =
      world.lease.arena().create<capture::PacketCapture>(*world.client_host);
  clients::FetchResult result;
  world.client->fetch(name, 443, [&](clients::FetchResult r) {
    result = std::move(r);
  });
  world.net->loop().run();
  EXPECT_TRUE(result.connection.ok) << result.connection.error;
  ASSERT_TRUE(result.response_received);
  EXPECT_EQ(result.response_text(), "2001:db8::2");
  EXPECT_FALSE(cap->packets().empty());
}

// ------------------------------------------------------ feature matrix ----

struct FeatureFixture : ::testing::Test {
  LocalTestbed testbed;
};

TEST_F(FeatureFixture, ChromeRow) {
  const auto row = detect_features(
      clients::chromium_profile("Chrome", "130.0", "10-2024"), testbed);
  EXPECT_EQ(row.prefers_ipv6, FeatureState::kObserved);
  EXPECT_EQ(row.cad_impl, FeatureState::kObserved);
  EXPECT_EQ(row.aaaa_first, FeatureState::kObserved);
  EXPECT_EQ(row.rd_impl, FeatureState::kNotObserved);
  EXPECT_EQ(row.ipv6_addrs_used, 1);
  EXPECT_EQ(row.ipv4_addrs_used, 1);
  EXPECT_EQ(row.addr_selection, FeatureState::kNotObserved);
  ASSERT_TRUE(row.measured_cad);
  EXPECT_EQ(*row.measured_cad, ms(300));
}

TEST_F(FeatureFixture, SafariRowSupportsEverything) {
  const auto row = detect_features(clients::safari_profile("17.6"), testbed);
  EXPECT_EQ(row.prefers_ipv6, FeatureState::kObserved);
  EXPECT_EQ(row.cad_impl, FeatureState::kObserved);
  EXPECT_EQ(row.aaaa_first, FeatureState::kObserved);
  EXPECT_EQ(row.rd_impl, FeatureState::kObserved);
  EXPECT_EQ(row.ipv6_addrs_used, 10);
  EXPECT_EQ(row.ipv4_addrs_used, 10);
  EXPECT_EQ(row.addr_selection, FeatureState::kObserved);
}

TEST_F(FeatureFixture, WgetRowHasNoHappyEyeballs) {
  const auto row = detect_features(clients::wget_profile(), testbed);
  EXPECT_EQ(row.prefers_ipv6, FeatureState::kObserved);
  EXPECT_EQ(row.cad_impl, FeatureState::kNotObserved);
  EXPECT_EQ(row.rd_impl, FeatureState::kNotObserved);
  EXPECT_EQ(row.ipv4_addrs_used, 0);
  EXPECT_EQ(row.ipv6_addrs_used, 1);
}

TEST_F(FeatureFixture, CurlRow) {
  const auto row = detect_features(clients::curl_profile(), testbed);
  EXPECT_EQ(row.cad_impl, FeatureState::kObserved);
  EXPECT_EQ(row.rd_impl, FeatureState::kNotObserved);
  EXPECT_EQ(row.ipv6_addrs_used, 1);
  EXPECT_EQ(row.ipv4_addrs_used, 1);
  ASSERT_TRUE(row.measured_cad);
  EXPECT_EQ(*row.measured_cad, ms(200));
}

}  // namespace
}  // namespace lazyeye::testbed
