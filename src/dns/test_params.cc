#include "dns/test_params.h"

#include "util/strings.h"

namespace lazyeye::dns {

SimTime TestParams::delay_for(RrType type) const {
  SimTime d = all_delay;
  if (const auto it = delays.find(type); it != delays.end()) d += it->second;
  return d;
}

namespace {

/// Parses one "d<ms>-<type>" label; returns false if it is not one.
bool parse_delay_label(std::string_view label, TestParams& out) {
  if (label.size() < 4 || label[0] != 'd') return false;
  const auto dash = label.find('-');
  if (dash == std::string_view::npos || dash < 2) return false;
  const auto ms_value = lazyeye::parse_u64(label.substr(1, dash - 1));
  if (!ms_value) return false;
  const std::string_view type_str = label.substr(dash + 1);
  const SimTime delay = lazyeye::ms(static_cast<std::int64_t>(*ms_value));
  if (type_str == "all") {
    out.all_delay += delay;
    return true;
  }
  const auto type = rr_type_from_name(type_str);
  if (!type) return false;
  out.delays[*type] += delay;
  return true;
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

DnsName make_test_name(const DnsName& base, const std::string& nonce,
                       const std::map<RrType, SimTime>& delays,
                       SimTime all_delay) {
  DnsName name = base;
  if (all_delay.count() > 0) {
    name = name.prepend(lazyeye::str_format(
        "d%lld-all", static_cast<long long>(
                         std::chrono::duration_cast<std::chrono::milliseconds>(
                             all_delay)
                             .count())));
  }
  for (const auto& [type, delay] : delays) {
    name = name.prepend(lazyeye::str_format(
        "d%lld-%s",
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(delay)
                .count()),
        lazyeye::to_lower(rr_type_name(type)).c_str()));
  }
  if (!nonce.empty()) name = name.prepend("n" + nonce);
  return name;
}

}  // namespace lazyeye::dns
