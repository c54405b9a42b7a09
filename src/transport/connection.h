// Common connection-attempt types shared by the TCP and QUIC stacks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "simnet/ip.h"
#include "util/time.h"

namespace lazyeye::transport {

/// Classic connection four-tuple from this stack's point of view. Inbound
/// packets carry the mirrored form ({dst, src} of the packet).
struct FourTuple {
  simnet::Endpoint local;
  simnet::Endpoint remote;
  auto operator<=>(const FourTuple&) const = default;
};

enum class TransportProtocol : std::uint8_t { kTcp, kQuic };

/// What a server-side interposer tells the stack to do with an inbound
/// handshake (conformance fault injection, src/conformance/). kAccept is
/// what an absent interposer implies.
enum class AcceptAction : std::uint8_t {
  kAccept,           // normal handshake
  kReset,            // refuse: answer the opening packet with a reset/close
  kDrop,             // blackhole: swallow the opening packet silently
  kAcceptThenReset,  // complete the handshake, then reset immediately
};

/// Consulted when an inbound handshake reaches a listening port. Both stacks
/// guard the call behind a null check, so unset hooks cost one branch.
using AcceptInterposer = std::function<AcceptAction(
    const simnet::Endpoint& peer, std::uint16_t local_port)>;

struct ConnectResult {
  bool ok = false;
  std::string error;  // "timeout", "refused", "cancelled" when !ok
  TransportProtocol proto = TransportProtocol::kTcp;
  simnet::Endpoint local;
  simnet::Endpoint remote;
  SimTime started{0};
  SimTime completed{0};
  /// Connection id usable for data transfer (0 when failed).
  std::uint64_t connection_id = 0;

  simnet::Family family() const { return remote.addr.family(); }
  SimTime handshake_time() const { return completed - started; }
};

/// Runs exactly once per connection attempt, on success or failure.
using ConnectHandler = std::function<void(const ConnectResult&)>;
/// (connection id, peer) — runs on the server when a handshake completes.
using AcceptHandler =
    std::function<void(std::uint64_t conn_id, const simnet::Endpoint& peer)>;
/// (connection id, payload bytes) — runs on data arrival. The view is only
/// valid for the call (the bytes live in the packet's pooled buffer); copy
/// to keep them.
using DataHandler =
    std::function<void(std::uint64_t conn_id, std::span<const std::uint8_t>)>;

}  // namespace lazyeye::transport
