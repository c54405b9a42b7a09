// Response interposition hook for the authoritative server (conformance
// layer).
//
// A ResponseInterposer sits between AuthServer's response construction and
// the wire: it can edit the decoded response in place, stretch the response
// delay, drop the response, corrupt the encoded bytes, or emit extra
// (spoofed/duplicate) datagrams from the server's address. AuthServer is the
// only DNS component that takes one; the hook is one branch when unset, so
// measurement campaigns never pay for the fault layer they do not use.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dns/message.h"
#include "util/time.h"

namespace lazyeye::dns {

/// A pre-encoded extra datagram to emit from the server's address.
struct InterposedDatagram {
  std::vector<std::uint8_t> wire;
  /// Relative to now. 0 = sent before the (possibly delayed) real response,
  /// which is how an off-path spoof races the genuine answer.
  SimTime delay{0};
};

/// Wire-level directives an interposer fills in for one response.
struct ResponseDirectives {
  /// Suppress the response entirely (the query was still logged).
  bool drop = false;
  /// Applied in place to the encoded response bytes just before the send
  /// (truncation, seeded corruption). Runs after name compression.
  std::function<void(std::vector<std::uint8_t>&)> mutate_wire;
  /// Extra datagrams (spoofed/duplicate answers) to emit alongside.
  std::vector<InterposedDatagram> extra;
};

/// Interposes on one outgoing response: `response` and `delay` are mutable
/// (message-level faults); wire-level actions go through `out`.
using ResponseInterposer =
    std::function<void(const DnsMessage& query, DnsMessage& response,
                       SimTime& delay, ResponseDirectives& out)>;

}  // namespace lazyeye::dns
