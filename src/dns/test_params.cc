#include "dns/test_params.h"

#include <stdexcept>

#include "util/strings.h"

namespace lazyeye::dns {

SimTime TestParams::delay_for(RrType type) const {
  SimTime d = all_delay;
  for (std::size_t i = 0; i < delay_count; ++i) {
    if (delays[i].type == type) d += delays[i].delay;
  }
  return d;
}

namespace {

/// Adds `delay` to `type`'s slot of `out`; false if no slot is left.
bool add_delay(TestParams& out, RrType type, SimTime delay) {
  for (std::size_t i = 0; i < out.delay_count; ++i) {
    if (out.delays[i].type == type) {
      out.delays[i].delay += delay;
      return true;
    }
  }
  if (out.delay_count == out.delays.size()) return false;
  out.delays[out.delay_count++] = TestParams::TypedDelay{type, delay};
  return true;
}

/// The most milliseconds one delay label may carry: one day. SimTime counts
/// nanoseconds in an int64, so a larger label would overflow ms(); at this
/// cap even the sum over the <= 63 labels of a 255-octet name stays in
/// range.
constexpr std::uint64_t kMaxDelayMs = 24ull * 60 * 60 * 1000;

/// Parses one "d<ms>-<type>" label; returns false if it is not one (a
/// label above kMaxDelayMs is not).
bool parse_delay_label(std::string_view label, TestParams& out) {
  if (label.size() < 4 || label[0] != 'd') return false;
  const auto dash = label.find('-');
  if (dash == std::string_view::npos || dash < 2) return false;
  std::int64_t ms_value = 0;
  if (!lazyeye::parse_bounded(label.substr(1, dash - 1), 0, kMaxDelayMs,
                              ms_value)) {
    return false;
  }
  const std::string_view type_str = label.substr(dash + 1);
  const SimTime delay = lazyeye::ms(ms_value);
  if (type_str == "all") {
    out.all_delay += delay;
    return true;
  }
  const auto type = rr_type_from_name(type_str);
  return type && add_delay(out, *type, delay);
}

bool is_nonce_label(std::string_view label) {
  if (label.size() < 2 || label[0] != 'n') return false;
  for (std::size_t i = 1; i < label.size(); ++i) {
    const char c = label[i];
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
    if (!alnum) return false;
  }
  return true;
}

}  // namespace

std::optional<TestParams> parse_test_params(const DnsName& qname) {
  TestParams params;
  bool found = false;
  qname.for_each_label([&](std::string_view label) {
    if (parse_delay_label(label, params)) {
      found = true;
    } else if (is_nonce_label(label) && params.nonce.empty()) {
      params.nonce = label.substr(1);
      found = true;
    }
  });
  if (!found) return std::nullopt;
  return params;
}

namespace {

/// "d<whole ms>-<suffix>".
std::string delay_label(SimTime delay, std::string_view suffix) {
  return lazyeye::str_cat(
      'd', std::chrono::duration_cast<std::chrono::milliseconds>(delay).count(),
      '-', suffix);
}

}  // namespace

DnsName make_test_name(const DnsName& base, std::string_view nonce,
                       const std::map<RrType, SimTime>& delays) {
  DnsName name = base;
  for (const auto& [type, delay] : delays) {
    name = name.prepend(
        delay_label(delay, lazyeye::to_lower(rr_type_name(type))));
  }
  if (!nonce.empty()) name = name.prepend(lazyeye::str_cat('n', nonce));
  return name;
}

simnet::Ipv4Address decoy_v4(int i) {
  if (i < 1 || i > 255) throw std::out_of_range("decoy_v4: index out of range");
  return simnet::Ipv4Address{0x0a630000u | static_cast<std::uint32_t>(i)};
}

simnet::Ipv6Address decoy_v6(int i) {
  if (i < 1 || i > 9999) throw std::out_of_range("decoy_v6: index out of range");
  static const simnet::Ipv6Address base =
      *simnet::Ipv6Address::parse("2001:db8:dead::");
  simnet::Ipv6Address addr = base;
  addr.set_group(7, lazyeye::decimal_digits_as_hex(static_cast<unsigned>(i)));
  return addr;
}

}  // namespace lazyeye::dns
