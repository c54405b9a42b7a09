#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "simnet/ip.h"
#include "util/crc32.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/time.h"
#include "util/wire.h"

namespace lazyeye {
namespace {

// ---------------------------------------------------------------- time ----

TEST(TimeTest, ConstructorsAgree) {
  EXPECT_EQ(ms(1), us(1000));
  EXPECT_EQ(sec(1), ms(1000));
  EXPECT_EQ(minutes(1), sec(60));
  EXPECT_EQ(ms_f(0.5), us(500));
  EXPECT_EQ(ms_f(250.0), ms(250));
}

TEST(TimeTest, ToMsRoundTrips) {
  EXPECT_DOUBLE_EQ(to_ms(ms(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_ms(us(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_sec(ms(1750)), 1.75);
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(format_duration(ms(0)), "0ms");
  EXPECT_EQ(format_duration(ms(250)), "250ms");
  EXPECT_EQ(format_duration(ms(1750)), "1750ms");
  EXPECT_EQ(format_duration(sec(2)), "2s");
  EXPECT_EQ(format_duration(us(50)), "50us");
  EXPECT_EQ(format_duration(ns(7)), "7ns");
  EXPECT_EQ(format_duration(-ms(5)), "-5ms");
  EXPECT_EQ(format_duration(sec(12)), "12s");
}

/// format_duration as it was written with snprintf("%.3f"), the reference
/// the std::to_chars form must match byte for byte (for n > INT64_MIN).
std::string printf_format_duration(SimTime t) {
  const std::int64_t n = t.count();
  if (n == 0) return "0ms";
  if (n < 0) return "-" + printf_format_duration(-t);
  const auto trimmed = [](double v, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    std::string s{buf};
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s + unit;
  };
  if (n % 1'000'000'000 == 0 || n >= 10'000'000'000) {
    return trimmed(to_sec(t), "s");
  }
  if (n >= 1'000'000) return trimmed(to_ms(t), "ms");
  if (n >= 1'000) {
    return trimmed(std::chrono::duration<double, std::micro>(t).count(), "us");
  }
  return std::to_string(n) + "ns";
}

TEST(TimeTest, FormatDurationMatchesPrintfOnRandomValues) {
  Rng rng{2024};
  for (int i = 0; i < 200'000; ++i) {
    // Spread over every unit band: ns, us, ms, whole and >= 10 s.
    const int digits = static_cast<int>(rng.next_below(19));
    std::int64_t bound = 1;
    for (int d = 0; d < digits; ++d) bound *= 10;
    std::int64_t n = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(bound)) + 1);
    if (rng.chance(0.25)) n = -n;
    ASSERT_EQ(format_duration(ns(n)), printf_format_duration(ns(n)))
        << "n = " << n;
  }
}

TEST(TimeTest, FormatDurationMatchesPrintfOnExactTies) {
  // k + j/16 ms and s are exact binary fractions whose 4th decimal is a 5:
  // printf rounds such a tie to even, and so must to_chars.
  for (std::int64_t k = 1; k < 2000; ++k) {
    for (std::int64_t j = 1; j < 16; j += 2) {
      for (const std::int64_t unit : {1'000'000LL, 1'000'000'000LL}) {
        const std::int64_t n = k * unit + j * unit / 16;
        ASSERT_EQ(format_duration(ns(n)), printf_format_duration(ns(n)))
            << "n = " << n;
      }
    }
  }
  EXPECT_EQ(format_duration(ns(1'062'500)), "1.062ms");
  EXPECT_EQ(format_duration(ns(1'187'500)), "1.188ms");
}

TEST(TimeTest, FormatDurationExtremes) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(format_duration(ns(kMax)), printf_format_duration(ns(kMax)));
  EXPECT_EQ(format_duration(ns(kMax)), "9223372036.855s");
  // -INT64_MIN wraps back onto itself; the magnitude is 2^63 ns.
  EXPECT_EQ(format_duration(ns(kMin)), "-9223372036.855s");
  EXPECT_EQ(format_duration(ns(kMin + 1)), "-9223372036.855s");
}

TEST(TimeTest, DurationShapeIsTheTextWithoutItsDigits) {
  // Equal shapes exactly when the texts are equal once every digit run is
  // one '#': over values from every unit band, both signs and the extremes.
  const auto collapsed = [](const std::string& text) {
    std::string out;
    for (const char c : text) {
      const bool digit = c >= '0' && c <= '9';
      if (!digit || out.empty() || out.back() != '#') out += digit ? '#' : c;
    }
    return out;
  };
  std::map<std::uint8_t, std::string> text_of;
  std::map<std::string, std::uint8_t> shape_of;
  Rng rng{7};
  std::vector<std::int64_t> values{0, 1'500'000'000, 12'500'000'000,
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
  for (int i = 0; i < 100'000; ++i) {
    const int digits = static_cast<int>(rng.next_below(19));
    std::int64_t bound = 1;
    for (int d = 0; d < digits; ++d) bound *= 10;
    std::int64_t n = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(bound)) + 1);
    values.push_back(rng.chance(0.25) ? -n : n);
  }
  for (const std::int64_t n : values) {
    const std::uint8_t shape = duration_shape(ns(n));
    const std::string text = collapsed(format_duration(ns(n)));
    EXPECT_EQ(text_of.emplace(shape, text).first->second, text) << n;
    EXPECT_EQ(shape_of.emplace(text, shape).first->second, shape) << n;
  }
  // Sign, fraction and all four units: "#s" "#.#s" "#ms" "#.#ms" "#us"
  // "#.#us" "#ns", each also negative.
  EXPECT_EQ(shape_of.size(), 14u);
  EXPECT_EQ(duration_shape(ms(0)), duration_shape(ms(43)));
  EXPECT_NE(duration_shape(ms(43)), duration_shape(us(1500)));
}

// ----------------------------------------------------------------- rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng{99};
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng{3};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng{11};
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, RangeInclusive) {
  Rng rng{5};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DurationRange) {
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    const SimTime t = rng.next_duration(ms(10), ms(20));
    EXPECT_GE(t, ms(10));
    EXPECT_LE(t, ms(20));
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent{123};
  Rng child = parent.fork();
  // The fork must not replay the parent's stream.
  Rng parent2{123};
  parent2.fork();
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

// ---------------------------------------------------------------- wire ----
// Every case runs over both buffer types the writers append to: strings
// (journal and corpus payloads) and byte vectors (DNS packets).

template <typename Buf>
class WireTest : public ::testing::Test {};
using WireBuffers = ::testing::Types<std::string, std::vector<std::uint8_t>>;
TYPED_TEST_SUITE(WireTest, WireBuffers);

/// Byte `i` of `buf` as an unsigned value, whatever the element type.
template <typename Buf>
unsigned byte_at(const Buf& buf, std::size_t i) {
  return static_cast<std::uint8_t>(buf[i]);
}

TYPED_TEST(WireTest, WritersAreBigEndian) {
  TypeParam buf;
  wire::put_u8(buf, 0x01);
  wire::put_u16(buf, 0x0203);
  wire::put_u32(buf, 0x04050607);
  wire::put_u64(buf, 0x08090a0b0c0d0e0f);
  ASSERT_EQ(buf.size(), 15u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(byte_at(buf, i), i + 1) << "byte " << i;
  }
}

TYPED_TEST(WireTest, ReaderRoundTrip) {
  TypeParam buf;
  wire::put_u16(buf, 0xbeef);
  wire::put_u32(buf, 0xdeadc0de);
  wire::put_u64(buf, 0x0123456789abcdefULL);
  wire::put_str(buf, "abc");
  wire::put_bytes(buf, "xy");

  wire::Reader r{buf};
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadc0deu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.str(), "abc");
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.view(2), "xy");
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
}

TYPED_TEST(WireTest, ReaderOutOfBoundsSticks) {
  TypeParam buf;
  wire::put_u8(buf, 0x01);
  wire::put_u8(buf, 0x02);
  wire::Reader r{buf};
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0);  // out of bounds
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.u8(), 0);  // still failing, though one byte is left
  EXPECT_EQ(r.view(1), "");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.exhausted());
}

TYPED_TEST(WireTest, ReaderSkipAndSeek) {
  TypeParam buf;
  for (const std::uint8_t b : {0xaa, 0xbb, 0xcc}) wire::put_u8(buf, b);
  wire::Reader r{buf};
  r.skip(2);
  EXPECT_EQ(r.pos, 2u);
  r.seek(1);  // back, as a DNS compression pointer does
  EXPECT_EQ(r.u8(), 0xbb);
  r.seek(3);  // one past the last byte is the end, not an error
  EXPECT_TRUE(r.exhausted());
  r.seek(17);
  EXPECT_FALSE(r.ok);
  r.seek(0);  // a later seek does not clear the latch
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.u8(), 0);

  wire::Reader s{buf};
  s.skip(4);
  EXPECT_FALSE(s.ok);
}

TYPED_TEST(WireTest, SetU16PatchesInPlace) {
  TypeParam buf;
  wire::put_u16(buf, 0);
  wire::put_u8(buf, 0x42);
  wire::set_u16(buf, 0, 0x1234);
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(byte_at(buf, 0), 0x12u);
  EXPECT_EQ(byte_at(buf, 1), 0x34u);
  EXPECT_EQ(byte_at(buf, 2), 0x42u);
  EXPECT_THROW(wire::set_u16(buf, 2, 0), std::out_of_range);
}

// -------------------------------------------------------------- result ----

TEST(ResultTest, SuccessAndFailure) {
  Result<int> ok{42};
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  const auto bad = Result<int>::failure("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ResultTest, StatusDefaultOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  const auto f = Status::failure("broken");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error(), "broken");
}

// ------------------------------------------------------------- strings ----

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a.b.c", '.'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(".a.", '.'), (std::vector<std::string>{"", "a", ""}));
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(to_lower("AbC-123"), "abc-123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("example.com", "exam"));
  EXPECT_FALSE(starts_with("a", "ab"));
  EXPECT_TRUE(ends_with("example.com", ".com"));
  EXPECT_FALSE(ends_with("com", ".com"));
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("250"), 250u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(StringsTest, ParseBoundedRefusesJunkAndOutOfRange) {
  int out = 7;
  EXPECT_TRUE(parse_bounded("3", 1, 16, out));
  EXPECT_EQ(out, 3);
  EXPECT_TRUE(parse_bounded("16", 1, 16, out));
  EXPECT_EQ(out, 16);
  // Refusals leave `out` untouched.
  EXPECT_FALSE(parse_bounded("0", 1, 16, out));
  EXPECT_FALSE(parse_bounded("17", 1, 16, out));
  EXPECT_FALSE(parse_bounded("abc", 0, 16, out));
  EXPECT_FALSE(parse_bounded("-1", 0, 16, out));
  EXPECT_FALSE(parse_bounded("", 0, 16, out));
  EXPECT_EQ(out, 16);
  std::uint64_t wide = 0;
  EXPECT_TRUE(parse_bounded("18446744073709551615", 0, UINT64_MAX, wide));
  EXPECT_EQ(wide, UINT64_MAX);
}

TEST(StringsTest, Format) {
  EXPECT_EQ(str_format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(str_format("%.1f %%", 43.75), "43.8 %");
}

TEST(StringsTest, FormatAroundTheStackBuffer) {
  // 255 bytes fit the 256-byte stack buffer with its NUL; 256 and more
  // take the second pass.
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{254}, std::size_t{255},
                                 std::size_t{256}, std::size_t{257},
                                 std::size_t{1500}}) {
    std::string body;
    for (std::size_t i = 0; i < size; ++i) {
      body += static_cast<char>('a' + i % 26);
    }
    EXPECT_EQ(str_format("%s", body.c_str()), body) << size;
    EXPECT_EQ(str_format("%d|%s|%x", 7, body.c_str(), 255u),
              "7|" + body + "|ff")
        << size;
  }
}

TEST(StringsTest, AppendersMatchPrintf) {
  Rng rng{99};
  char buf[64];
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t u = rng.next_u64() >> rng.next_below(64);
    const auto s = static_cast<std::int64_t>(u) - (1LL << 40);
    std::string out;
    append_decimal(out, u);
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(u));
    ASSERT_EQ(out, buf);
    out.clear();
    append_decimal(out, s);
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(s));
    ASSERT_EQ(out, buf);
  }
  std::string row;
  append_padded(row, "client", 10);
  append_padded(row, "a-name-longer-than-its-column", 4);
  std::snprintf(buf, sizeof buf, "%-10s%-4s", "client",
                "a-name-longer-than-its-column");
  EXPECT_EQ(row, buf);
  EXPECT_EQ(str_cat("rep", 3, ' ', std::string{"x"}, -2, std::size_t{7}),
            "rep3 x-27");
}

TEST(StringsTest, DecimalDigitsAsHex) {
  char buf[8];
  for (unsigned v = 0; v <= 9999; ++v) {
    std::snprintf(buf, sizeof buf, "%u", v);
    ASSERT_EQ(decimal_digits_as_hex(v), std::stoul(buf, nullptr, 16)) << v;
  }
}

// ------------------------------------------------------------- ip text ----

/// Ipv6Address::to_string as it was written with snprintf("%x").
std::string printf_ipv6(const simnet::Ipv6Address& a) {
  int best_start = -1;
  int best_len = 0;
  for (int i = 0; i < 8;) {
    if (a.group(i) != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && a.group(j) == 0) ++j;
    if (j - i > best_len) {
      best_len = j - i;
      best_start = i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;
  std::string out;
  char buf[8];
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buf, sizeof buf, "%x", a.group(i));
    out += buf;
    ++i;
  }
  return out;
}

TEST(IpTextTest, Ipv4MatchesPrintf) {
  Rng rng{4};
  char buf[16];
  for (int i = 0; i < 10'000; ++i) {
    const simnet::Ipv4Address a{i < 2 ? (i == 0 ? 0u : 0xffffffffu)
                                      : static_cast<std::uint32_t>(
                                            rng.next_u64())};
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (a.value >> 24) & 0xff,
                  (a.value >> 16) & 0xff, (a.value >> 8) & 0xff,
                  a.value & 0xff);
    ASSERT_EQ(a.to_string(), buf);
    ASSERT_EQ(simnet::Ipv4Address::parse(buf), a);
  }
}

TEST(IpTextTest, Ipv6EdgeCases) {
  const auto text = [](std::string_view literal) {
    return simnet::Ipv6Address::parse(literal)->to_string();
  };
  EXPECT_EQ(text("::"), "::");
  EXPECT_EQ(text("::1"), "::1");
  EXPECT_EQ(text("1::"), "1::");
  // A single zero group is never compressed.
  EXPECT_EQ(text("1:0:2:3:4:5:6:7"), "1:0:2:3:4:5:6:7");
  // Equal-length zero runs: the leftmost is compressed.
  EXPECT_EQ(text("1:0:0:2:3:0:0:4"), "1::2:3:0:0:4");
  // The longer run wins even when it is not the leftmost.
  EXPECT_EQ(text("1:0:0:2:0:0:0:4"), "1:0:0:2::4");
  // Leading zeros inside a group are dropped; hex is lower case.
  EXPECT_EQ(text("2001:0DB8:0001:00a0:0000:0000:0000:000F"), "2001:db8:1:a0::f");
  EXPECT_EQ(text("0:0:1:0:0:0:0:0"), "0:0:1::");
  for (const char* literal :
       {"::", "::1", "1::", "1:0:2:3:4:5:6:7", "1:0:0:2:3:0:0:4",
        "0:0:1:0:0:0:0:0", "2001:db8:dead::10", "ffff:ffff:ffff:ffff::"}) {
    const auto a = *simnet::Ipv6Address::parse(literal);
    EXPECT_EQ(a.to_string(), printf_ipv6(a)) << literal;
  }
}

TEST(IpTextTest, Ipv6MatchesPrintfOnRandomGroups) {
  Rng rng{6};
  for (int i = 0; i < 20'000; ++i) {
    simnet::Ipv6Address a;
    for (int g = 0; g < 8; ++g) {
      // Mostly zeros, so every run length and position shows up.
      const auto v = static_cast<std::uint16_t>(rng.next_u64());
      a.set_group(g, rng.chance(0.5) ? 0 : v >> rng.next_below(16));
    }
    ASSERT_EQ(a.to_string(), printf_ipv6(a));
    ASSERT_EQ(simnet::Ipv6Address::parse(a.to_string()), a);
  }
}

TEST(IpTextTest, EndpointMatchesPrintf) {
  char buf[64];
  for (const char* literal : {"10.0.0.80", "2001:db8::80", "::", "0.0.0.0"}) {
    for (const std::uint16_t port : {0, 53, 443, 65535}) {
      const simnet::Endpoint ep{simnet::IpAddress::must_parse(literal), port};
      std::snprintf(buf, sizeof buf, ep.addr.is_v6() ? "[%s]:%u" : "%s:%u",
                    ep.addr.to_string().c_str(), static_cast<unsigned>(port));
      EXPECT_EQ(ep.to_string(), buf);
      std::string out = "peer ";
      ep.append_to(out);
      EXPECT_EQ(out, std::string{"peer "} + buf);
    }
  }
}

// --------------------------------------------------------------- table ----

TEST(TableTest, RendersAlignedColumns) {
  TextTable t{{"Name", "Value"}};
  t.set_align(1, TextTable::Align::kRight);
  t.add_row({"x", "1"});
  t.add_row({"longer", "250"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Name   | Value |"), std::string::npos);
  EXPECT_NE(out.find("| x      |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| longer |   250 |"), std::string::npos);
}

TEST(TableTest, SeparatorRows) {
  TextTable t{{"A"}};
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // Header rule + separator rule.
  std::size_t rules = 0;
  for (std::size_t pos = 0; (pos = out.find("|---", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 2u);
}

TEST(TableTest, ShortRowsPadded) {
  TextTable t{{"A", "B"}};
  t.add_row({"only-a"});
  EXPECT_NE(t.render().find("| only-a |"), std::string::npos);
}

// ---------------------------------------------------------------- crc32 ----

/// Bit-at-a-time CRC-32 update: no table, so it checks the sliced tables
/// instead of sharing them.
std::uint32_t crc32_update_bitwise(std::uint32_t state,
                                   const unsigned char* data,
                                   std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) != 0 ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
  }
  return state;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0u);
  static constexpr unsigned char kDigits[] = {'1', '2', '3', '4', '5',
                                              '6', '7', '8', '9'};
  static_assert(util::crc32_final(util::crc32_update(util::crc32_init(),
                                                     kDigits, 9)) ==
                    0xCBF43926u,
                "crc32_update stays usable in constant expressions");
}

TEST(Crc32Test, SlicedUpdateMatchesBitwiseAtEveryLengthAndAlignment) {
  // 8 alignments x 1,025 lengths of seeded bytes, each from an arbitrary
  // running state, plus the same input fed in two pieces.
  SplitMix64 rng{0xC3C3};
  std::vector<unsigned char> bytes(1024 + 8);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const unsigned char* data = bytes.data() + align;
      const std::uint32_t state = static_cast<std::uint32_t>(rng.next());
      const std::uint32_t want = crc32_update_bitwise(state, data, len);
      ASSERT_EQ(util::crc32_update(state, data, len), want)
          << "align " << align << " len " << len;
      const std::size_t split = len / 3;
      ASSERT_EQ(util::crc32_update(util::crc32_update(state, data, split),
                                   data + split, len - split),
                want)
          << "align " << align << " len " << len << " split " << split;
    }
  }
}

}  // namespace
}  // namespace lazyeye
