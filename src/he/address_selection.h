// RFC 8305 §4 destination address selection: family interlacing with a
// First Address Family Count, keeping DNS order within each family.
#pragma once

#include <span>
#include <vector>

#include "he/options.h"
#include "simnet/ip.h"

namespace lazyeye::he {

/// Views of each family's resolved addresses, in DNS order; the caller's
/// storage outlives the select_addresses() call.
struct SelectionInput {
  std::span<const simnet::IpAddress> ipv6;
  std::span<const simnet::IpAddress> ipv4;
};

/// Produces the ordered attempt list:
///  1. truncates each family to `max_addresses_per_family`,
///  2. interlaces per `interlace`/`first_address_family_count` with the
///     preferred family, IPv6, first.
std::vector<simnet::IpAddress> select_addresses(const SelectionInput& input,
                                                const HeOptions& options);

}  // namespace lazyeye::he
