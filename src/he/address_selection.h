// RFC 8305 §4 destination address selection: sorting plus family interlacing
// with a First Address Family Count.
#pragma once

#include <vector>

#include "he/options.h"
#include "simnet/ip.h"

namespace lazyeye::he {

struct AddressCandidate {
  simnet::IpAddress address;
  /// Whether the source (e.g. an HTTPS RR) advertised ECH for this endpoint
  /// (HEv3 preference input).
  bool ech_available = false;
};

struct SelectionInput {
  std::vector<AddressCandidate> ipv6;
  std::vector<AddressCandidate> ipv4;
};

/// Produces the ordered attempt list:
///  1. optionally prefers ECH-capable endpoints (HEv3), keeping DNS order
///     otherwise,
///  2. truncates each family to `max_addresses_per_family`,
///  3. interlaces per `interlace`/`first_address_family_count` with the
///     preferred family first.
std::vector<AddressCandidate> select_addresses(const SelectionInput& input,
                                               const HeOptions& options);

}  // namespace lazyeye::he
