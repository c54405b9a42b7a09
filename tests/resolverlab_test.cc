// Resolver lab tests: Table 3 metrics re-measured from the authoritative
// query log, Table 4 IPv6-only capability checks.
#include <gtest/gtest.h>

#include "resolverlab/lab.h"
#include "resolvers/service_profiles.h"

namespace lazyeye::resolverlab {
namespace {

using resolvers::AaaaOrderClass;

LabConfig quick_config() {
  LabConfig config;
  config.delay_grid = {ms(0),   ms(49),  ms(199), ms(375),
                       ms(399), ms(799), ms(1500)};
  config.repetitions = 5;
  config.seed = 17;
  return config;
}

resolvers::ServiceProfile service(const char* name) {
  const auto p = resolvers::find_service_profile(name);
  EXPECT_TRUE(p) << name;
  return *p;
}

/// The Table 3 row of one service, measured alone.
ServiceMetrics row(const char* name, const LabConfig& config) {
  return measure_services({service(name)}, config).front();
}

TEST(ServiceProfilesTest, RosterSizes) {
  EXPECT_EQ(resolvers::local_software_profiles().size(), 3u);
  EXPECT_EQ(resolvers::open_service_profiles().size(), 17u);
  int capable = 0;
  for (const auto& p : resolvers::open_service_profiles()) {
    if (p.ipv6_resolution_capable) ++capable;
  }
  // 13 of 17 open services can resolve IPv6-only delegations (Table 4).
  EXPECT_EQ(capable, 13);
}

TEST(ServiceProfilesTest, Table4AddressInventory) {
  EXPECT_EQ(service("Quad9 DNS").ipv4_addresses, 6);
  EXPECT_EQ(service("Quad9 DNS").ipv6_addresses, 6);
  EXPECT_EQ(service("114DNS").ipv6_addresses, 0);
  EXPECT_EQ(service("Lumen (Level3)").ipv4_addresses, 4);
  EXPECT_EQ(service("Lumen (Level3)").ipv6_addresses, 0);
}

TEST(ResolverLabTest, BindRow) {
  const auto metrics = row("BIND", quick_config());
  // BIND: A before AAAA for NS names, strict IPv6 preference, 800 ms
  // timeout, single IPv6 packet before the fallback.
  EXPECT_TRUE(metrics.aaaa_order_known);
  EXPECT_EQ(metrics.aaaa_order, AaaaOrderClass::kAfterA);
  EXPECT_DOUBLE_EQ(metrics.ipv6_share, 1.0);
  ASSERT_TRUE(metrics.max_ipv6_delay);
  EXPECT_EQ(*metrics.max_ipv6_delay, ms(799));
  EXPECT_EQ(metrics.max_ipv6_packets, 1);
}

TEST(ResolverLabTest, UnboundRow) {
  LabConfig config = quick_config();
  // Enough repetitions that the 43.8 % IPv6 choice and the 44 % retry gate
  // produce stable majorities per delay bucket.
  config.repetitions = 30;
  const auto metrics = row("Unbound", config);
  EXPECT_EQ(metrics.aaaa_order, AaaaOrderClass::kBeforeA);
  // Probabilistic 43.8 % IPv6 preference.
  EXPECT_NEAR(metrics.ipv6_share, 0.438, 0.15);
  ASSERT_TRUE(metrics.max_ipv6_delay);
  EXPECT_EQ(*metrics.max_ipv6_delay, ms(375));
  // The 44 % same-family retry yields a second IPv6 packet.
  EXPECT_EQ(metrics.max_ipv6_packets, 2);
}

TEST(ResolverLabTest, KnotRowEitherOr) {
  const auto metrics = row("Knot Resolver", quick_config());
  EXPECT_EQ(metrics.aaaa_order, AaaaOrderClass::kEitherOr);
  ASSERT_TRUE(metrics.max_ipv6_delay);
  EXPECT_EQ(*metrics.max_ipv6_delay, ms(399));
}

TEST(ResolverLabTest, GoogleNeverUsesV6AndDefersAaaa) {
  const auto metrics = row("Google P. DNS", quick_config());
  EXPECT_EQ(metrics.aaaa_order, AaaaOrderClass::kAfterAuthQuery);
  EXPECT_DOUBLE_EQ(metrics.ipv6_share, 0.0);
  EXPECT_FALSE(metrics.max_ipv6_delay);
  EXPECT_EQ(metrics.max_ipv6_packets, 0);
}

TEST(ResolverLabTest, OpenDnsClassicHappyEyeballs) {
  const auto metrics = row("OpenDNS", quick_config());
  EXPECT_EQ(metrics.aaaa_order, AaaaOrderClass::kBeforeA);
  EXPECT_DOUBLE_EQ(metrics.ipv6_share, 1.0);
  ASSERT_TRUE(metrics.max_ipv6_delay);
  EXPECT_EQ(*metrics.max_ipv6_delay, ms(49));
  EXPECT_EQ(metrics.max_ipv6_packets, 1);
}

TEST(ResolverLabTest, YandexSendsUpToSixV6Packets) {
  LabConfig config;
  config.delay_grid = {ms(0), ms(299), ms(1500)};
  config.repetitions = 6;
  config.seed = 23;
  const auto metrics = row("Yandex", config);
  EXPECT_EQ(metrics.max_ipv6_packets, 6);
}

TEST(ResolverLabTest, Dns0ParallelQueriesFlagged) {
  const auto metrics = row("DNS0.EU", quick_config());
  EXPECT_TRUE(metrics.delay_unmeasurable);  // Table 3 footnote 1
}

TEST(ResolverLabTest, Ipv6OnlyCapability) {
  // Capable services resolve IPv6-only delegations; the four incapable
  // services (Table 4) do not.
  EXPECT_TRUE(check_ipv6_only_capability(service("Cloudflare")));
  EXPECT_TRUE(check_ipv6_only_capability(service("BIND")));
  EXPECT_FALSE(check_ipv6_only_capability(service("HE")));
  EXPECT_FALSE(check_ipv6_only_capability(service("Lumen (Level3)")));
  EXPECT_FALSE(check_ipv6_only_capability(service("DYN")));
  EXPECT_FALSE(check_ipv6_only_capability(service("G-Core")));
}

TEST(ResolverLabTest, PaperGridCoversTable3Timeouts) {
  const auto config = LabConfig::paper_grid();
  EXPECT_GE(config.delay_grid.size(), 12u);
  // The grid brackets every distinctive Table 3 timeout from below.
  for (const int edge_ms : {50, 200, 250, 300, 376, 400, 500, 600, 800, 1250}) {
    bool bracketed = false;
    for (const auto d : config.delay_grid) {
      if (d < ms(edge_ms) && d >= ms(edge_ms) - ms(2)) bracketed = true;
    }
    EXPECT_TRUE(bracketed) << edge_ms;
  }
}

}  // namespace
}  // namespace lazyeye::resolverlab
