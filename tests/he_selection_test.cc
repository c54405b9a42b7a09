// Address selection (RFC 8305 §4), outcome cache, and options presets.
#include <gtest/gtest.h>

#include <vector>

#include "he/address_selection.h"
#include "he/cache.h"
#include "he/options.h"
#include "util/rng.h"

namespace lazyeye::he {
namespace {

using simnet::Family;
using simnet::IpAddress;

IpAddress v6(int i) {
  return IpAddress::must_parse("2001:db8::" + std::to_string(i));
}
IpAddress v4(int i) {
  return IpAddress::must_parse("10.0.0." + std::to_string(i));
}

std::vector<Family> families(const std::vector<IpAddress>& list) {
  std::vector<Family> out;
  for (const auto& address : list) out.push_back(address.family());
  return out;
}

TEST(AddressSelectionTest, AlternateFafc1) {
  const std::vector<IpAddress> ipv6{v6(1), v6(2), v6(3)};
  const std::vector<IpAddress> ipv4{v4(1), v4(2), v4(3)};
  const SelectionInput input{ipv6, ipv4};
  HeOptions o = HeOptions::rfc8305();
  const auto out = select_addresses(input, o);
  EXPECT_EQ(families(out),
            (std::vector<Family>{Family::kIpv6, Family::kIpv4, Family::kIpv6,
                                 Family::kIpv4, Family::kIpv6, Family::kIpv4}));
}

TEST(AddressSelectionTest, AlternateFafc2) {
  const std::vector<IpAddress> ipv6{v6(1), v6(2), v6(3)};
  const std::vector<IpAddress> ipv4{v4(1), v4(2)};
  const SelectionInput input{ipv6, ipv4};
  HeOptions o = HeOptions::rfc8305();
  o.first_address_family_count = 2;
  const auto out = select_addresses(input, o);
  // v6 v6 | v4 v6 v4
  EXPECT_EQ(families(out),
            (std::vector<Family>{Family::kIpv6, Family::kIpv6, Family::kIpv4,
                                 Family::kIpv6, Family::kIpv4}));
}

TEST(AddressSelectionTest, SafariPattern10Plus10) {
  std::vector<IpAddress> ipv6;
  std::vector<IpAddress> ipv4;
  for (int i = 1; i <= 10; ++i) ipv6.push_back(v6(i));
  for (int i = 1; i <= 10; ++i) ipv4.push_back(v4(i));
  const SelectionInput input{ipv6, ipv4};
  HeOptions o;
  o.first_address_family_count = 2;
  o.interlace = InterlaceMode::kFirstOtherThenRest;
  o.max_addresses_per_family = 10;
  const auto out = select_addresses(input, o);
  ASSERT_EQ(out.size(), 20u);
  // Paper App. D: two IPv6, one IPv4, remaining eight IPv6, remaining nine
  // IPv4.
  std::vector<Family> expected;
  expected.push_back(Family::kIpv6);
  expected.push_back(Family::kIpv6);
  expected.push_back(Family::kIpv4);
  for (int i = 0; i < 8; ++i) expected.push_back(Family::kIpv6);
  for (int i = 0; i < 9; ++i) expected.push_back(Family::kIpv4);
  EXPECT_EQ(families(out), expected);
}

TEST(AddressSelectionTest, TruncatesPerFamily) {
  std::vector<IpAddress> ipv6;
  std::vector<IpAddress> ipv4;
  for (int i = 1; i <= 5; ++i) ipv6.push_back(v6(i));
  for (int i = 1; i <= 5; ++i) ipv4.push_back(v4(i));
  const SelectionInput input{ipv6, ipv4};
  HeOptions o = HeOptions::rfc8305();
  o.max_addresses_per_family = 1;
  o.interlace = InterlaceMode::kNone;
  const auto out = select_addresses(input, o);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].family(), Family::kIpv6);
  EXPECT_EQ(out[1].family(), Family::kIpv4);
}

TEST(AddressSelectionTest, NoFallbackUsesPreferredOnly) {
  const std::vector<IpAddress> ipv6{v6(1), v6(2)};
  const std::vector<IpAddress> ipv4{v4(1)};
  const SelectionInput input{ipv6, ipv4};
  HeOptions o = HeOptions::none();
  o.max_addresses_per_family = 10;
  const auto out = select_addresses(input, o);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& address : out) {
    EXPECT_EQ(address.family(), Family::kIpv6);
  }
}

TEST(AddressSelectionTest, NoFallbackFallsToOtherFamilyOnlyWhenEmpty) {
  const std::vector<IpAddress> ipv4{v4(1)};
  const SelectionInput input{{}, ipv4};
  HeOptions o = HeOptions::none();
  const auto out = select_addresses(input, o);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].family(), Family::kIpv4);
}

TEST(AddressSelectionTest, EmptyInputsYieldEmptyPlan) {
  EXPECT_TRUE(select_addresses({}, HeOptions::rfc8305()).empty());
}

// Property: output is a permutation of the (truncated) inputs; the first
// element is from the preferred family whenever that family is non-empty.
TEST(AddressSelectionTest, RandomisedInvariants) {
  Rng rng{99};
  for (int iteration = 0; iteration < 300; ++iteration) {
    const int n6 = static_cast<int>(rng.next_below(6));
    const int n4 = static_cast<int>(rng.next_below(6));
    std::vector<IpAddress> ipv6;
    std::vector<IpAddress> ipv4;
    for (int i = 1; i <= n6; ++i) ipv6.push_back(v6(i));
    for (int i = 1; i <= n4; ++i) ipv4.push_back(v4(i));
    const SelectionInput input{ipv6, ipv4};

    HeOptions o;
    o.first_address_family_count = static_cast<int>(rng.next_in_range(1, 3));
    o.interlace = static_cast<InterlaceMode>(rng.next_below(3));
    o.max_addresses_per_family = static_cast<int>(rng.next_in_range(1, 6));

    const auto out = select_addresses(input, o);

    const std::size_t expect6 = std::min<std::size_t>(
        input.ipv6.size(), static_cast<std::size_t>(o.max_addresses_per_family));
    const std::size_t expect4 = std::min<std::size_t>(
        input.ipv4.size(), static_cast<std::size_t>(o.max_addresses_per_family));
    ASSERT_EQ(out.size(), expect6 + expect4) << "iteration " << iteration;

    std::size_t got6 = 0;
    for (const auto& address : out) {
      if (address.family() == Family::kIpv6) ++got6;
    }
    EXPECT_EQ(got6, expect6);

    // IPv6, the preferred family, leads whenever it has an address.
    if (expect6 > 0) {
      EXPECT_EQ(out.front().family(), Family::kIpv6)
          << "iteration " << iteration;
    }
    // No duplicates.
    for (std::size_t i = 0; i < out.size(); ++i) {
      for (std::size_t j = i + 1; j < out.size(); ++j) {
        EXPECT_NE(out[i], out[j]);
      }
    }
  }
}

// ---------------------------------------------------------------- cache ----

TEST(OutcomeCacheTest, StoreAndLookup) {
  OutcomeCache cache;
  const auto host = dns::DnsName::must_parse("www.he.lab");
  cache.store(host, IpAddress::must_parse("2001:db8::1"),
              SimTime{0}, minutes(10));
  const auto hit = cache.lookup(host, minutes(5));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->to_string(), "2001:db8::1");
}

TEST(OutcomeCacheTest, ExpiresAfterTtl) {
  OutcomeCache cache;
  const auto host = dns::DnsName::must_parse("www.he.lab");
  cache.store(host, IpAddress::must_parse("10.0.0.1"),
              SimTime{0}, minutes(10));
  EXPECT_TRUE(cache.lookup(host, minutes(10) - ms(1)));
  EXPECT_FALSE(cache.lookup(host, minutes(10)));
}

TEST(OutcomeCacheTest, ZeroTtlDisables) {
  OutcomeCache cache;
  const auto host = dns::DnsName::must_parse("www.he.lab");
  cache.store(host, IpAddress::must_parse("10.0.0.1"),
              SimTime{0}, SimTime{0});
  EXPECT_FALSE(cache.lookup(host, SimTime{0}));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(OutcomeCacheTest, EraseAndClear) {
  OutcomeCache cache;
  const auto a = dns::DnsName::must_parse("a.lab");
  const auto b = dns::DnsName::must_parse("b.lab");
  cache.store(a, IpAddress::must_parse("10.0.0.1"),
              SimTime{0}, minutes(10));
  cache.store(b, IpAddress::must_parse("10.0.0.2"),
              SimTime{0}, minutes(10));
  cache.erase(a);
  EXPECT_FALSE(cache.lookup(a, SimTime{0}));
  EXPECT_TRUE(cache.lookup(b, SimTime{0}));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// -------------------------------------------------------------- options ----

TEST(HeOptionsTest, Rfc6555Preset) {
  const auto o = HeOptions::rfc6555();
  EXPECT_EQ(o.connection_attempt_delay, ms(250));  // 150-250 ms upper bound
  EXPECT_FALSE(o.resolution_delay);
  EXPECT_EQ(o.max_addresses_per_family, 1);  // IPv6 once, then IPv4
  EXPECT_EQ(o.cache_ttl, minutes(10));       // "order of 10 minutes"
}

TEST(HeOptionsTest, Rfc8305Preset) {
  const auto o = HeOptions::rfc8305();
  ASSERT_TRUE(o.resolution_delay);
  EXPECT_EQ(*o.resolution_delay, ms(50));
  EXPECT_EQ(o.connection_attempt_delay, ms(250));
  EXPECT_EQ(o.first_address_family_count, 1);
  // Dynamic CAD bounds (Table 1): 10 ms / 100 ms / 2 s.
  EXPECT_EQ(o.dynamic_cad.minimum, ms(10));
  EXPECT_EQ(kRecommendedMinimumCad, ms(100));
  EXPECT_EQ(o.dynamic_cad.maximum, sec(2));
}

TEST(HeOptionsTest, DynamicCadClamping) {
  DynamicCad cad;
  cad.enabled = true;
  cad.minimum = ms(10);
  cad.maximum = sec(2);
  cad.rtt_multiplier = 2.0;
  cad.no_history_default = sec(2);
  EXPECT_EQ(cad.effective(std::nullopt), sec(2));
  EXPECT_EQ(cad.effective(ms(50)), ms(100));
  EXPECT_EQ(cad.effective(ms(1)), ms(10));      // clamped up
  EXPECT_EQ(cad.effective(sec(10)), sec(2));    // clamped down
}

TEST(HeOptionsTest, EffectiveCadSelectsModel) {
  HeOptions o;
  o.connection_attempt_delay = ms(300);
  EXPECT_EQ(o.effective_cad(ms(50)), ms(300));  // fixed
  o.dynamic_cad.enabled = true;
  o.dynamic_cad.rtt_multiplier = 4.0;
  o.dynamic_cad.minimum = ms(10);
  o.dynamic_cad.maximum = sec(2);
  EXPECT_EQ(o.effective_cad(ms(50)), ms(200));  // dynamic
}

}  // namespace
}  // namespace lazyeye::he
