#include "he/address_selection.h"

#include <algorithm>

namespace lazyeye::he {

std::vector<simnet::IpAddress> select_addresses(const SelectionInput& input,
                                                const HeOptions& options) {
  // IPv6 is the preferred family (RFC 8305 §4, and every measured client).
  std::span<const simnet::IpAddress> first = input.ipv6;
  std::span<const simnet::IpAddress> second = input.ipv4;

  const auto cap = static_cast<std::size_t>(
      std::max(0, options.max_addresses_per_family));
  if (first.size() > cap) first = first.first(cap);
  if (second.size() > cap) second = second.first(cap);

  if (!options.fallback_enabled) {
    // No fallback: the non-preferred family is only used when the preferred
    // one has no addresses at all.
    const auto only = first.empty() ? second : first;
    return {only.begin(), only.end()};
  }

  std::vector<simnet::IpAddress> out;
  out.reserve(first.size() + second.size());

  const std::size_t fafc = static_cast<std::size_t>(
      std::max(1, options.first_address_family_count));

  switch (options.interlace) {
    case InterlaceMode::kNone: {
      out.insert(out.end(), first.begin(), first.end());
      out.insert(out.end(), second.begin(), second.end());
      return out;
    }
    case InterlaceMode::kAlternate: {
      // RFC 8305 §4: start with `fafc` addresses of the preferred family,
      // then strictly alternate, starting with the other family.
      std::size_t i = std::min(fafc, first.size());
      out.insert(out.end(), first.begin(),
                 first.begin() + static_cast<std::ptrdiff_t>(i));
      std::size_t j = 0;
      bool take_second = true;
      while (i < first.size() || j < second.size()) {
        if (take_second && j < second.size()) {
          out.push_back(second[j++]);
        } else if (i < first.size()) {
          out.push_back(first[i++]);
        } else if (j < second.size()) {
          out.push_back(second[j++]);
        }
        take_second = !take_second;
      }
      return out;
    }
    case InterlaceMode::kFirstOtherThenRest: {
      // Safari (paper App. D): fafc preferred, one other, all remaining
      // preferred, then all remaining other.
      std::size_t i = std::min(fafc, first.size());
      out.insert(out.end(), first.begin(),
                 first.begin() + static_cast<std::ptrdiff_t>(i));
      std::size_t j = 0;
      if (j < second.size()) out.push_back(second[j++]);
      out.insert(out.end(), first.begin() + static_cast<std::ptrdiff_t>(i),
                 first.end());
      out.insert(out.end(), second.begin() + static_cast<std::ptrdiff_t>(j),
                 second.end());
      return out;
    }
  }
  return out;
}

}  // namespace lazyeye::he
