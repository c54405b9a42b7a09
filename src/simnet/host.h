// Simulated host: addresses, UDP sockets, protocol handlers, egress shaping,
// and capture taps.
//
// A Host owns no threads; all I/O happens through the owning Network's event
// loop. The TCP/QUIC state machines live in the transport module and hook in
// via set_protocol_handler(), so simnet stays transport-agnostic.
//
// Packet dispatch is flat: UDP bindings live in a sorted vector of
// InlineFunction-backed handlers (binary-searched by port, no node-based map
// in the per-packet path) and protocol handlers in a fixed per-protocol
// array. Handlers may bind/unbind freely from inside a dispatch — mutations
// are deferred until the in-flight dispatch returns, so the executing
// handler is never moved or destroyed under its own feet.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "simnet/inline_callback.h"
#include "simnet/netem.h"
#include "simnet/packet.h"

namespace lazyeye::simnet {

class Network;

enum class TapDirection : std::uint8_t { kEgress, kIngress };

class Host {
 public:
  using UdpHandler = InlineFunction<void(const Packet&)>;
  using ProtocolHandler = InlineFunction<void(const Packet&)>;
  /// Inline like every other simnet callable: capture taps fire per packet,
  /// and the capture layer's closures are pointer-sized.
  using Tap = InlineFunction<void(const Packet&, TapDirection)>;

  Host(Network& net, std::string name);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  Network& network() { return net_; }

  // -- Addressing ----------------------------------------------------------
  /// Registers an address on this host (and in the network's routing table).
  void add_address(const IpAddress& addr);
  const std::pmr::vector<IpAddress>& addresses() const { return addresses_; }
  /// First configured address of the family, if any.
  std::optional<IpAddress> address(Family family) const;
  bool owns_address(const IpAddress& addr) const;

  // -- UDP -----------------------------------------------------------------
  /// Binds a handler for datagrams to any local address on `port`.
  void udp_bind(std::uint16_t port, UdpHandler handler);
  void udp_unbind(std::uint16_t port);
  /// Sends a datagram. `src.addr` must be owned by this host.
  void udp_send(const Endpoint& src, const Endpoint& dst, Buffer payload);

  // -- Raw packet plumbing (used by transport stacks) -----------------------
  void send_packet(Packet&& p);
  /// Installs the handler for all inbound packets of `proto` that have no
  /// more specific binding (TCP always lands here).
  void set_protocol_handler(Protocol proto, ProtocolHandler handler);

  /// Allocates an ephemeral source port (49152..65535, round-robin).
  std::uint16_t ephemeral_port();

  // -- Shaping & observation -------------------------------------------------
  /// tc-netem equivalent attached to this host's egress.
  NetemQdisc& egress() { return egress_; }
  const NetemQdisc& egress() const { return egress_; }

  /// Registers a capture tap seeing all egress+ingress packets. Returns an id
  /// for removal.
  int add_tap(Tap tap);
  void remove_tap(int id);

  // Called by Network on packet arrival. Not for external use.
  void deliver(const Packet& p);

 private:
  struct UdpBinding {
    std::uint16_t port = 0;
    UdpHandler handler;
  };

  void notify_taps(const Packet& p, TapDirection dir);
  UdpBinding* find_udp_binding(std::uint16_t port);
  void apply_udp_op(std::uint16_t port, UdpHandler handler);
  void flush_pending_udp_ops();

  Network& net_;
  std::string name_;
  // All growable tables draw from the owning Network's memory resource, so
  // arena-backed worlds build hosts without touching the global heap.
  std::pmr::vector<IpAddress> addresses_;
  /// Sorted by port; handlers stored inline (InlineFunction SBO).
  std::pmr::vector<UdpBinding> udp_ports_;
  /// Indexed by Protocol; empty handler = unset.
  ProtocolHandler protocol_handlers_[2];
  /// Depth of in-flight deliver() calls; >0 defers udp table mutations.
  int dispatch_depth_ = 0;
  /// (port, handler) ops queued during dispatch; empty handler = unbind.
  std::pmr::vector<std::pair<std::uint16_t, UdpHandler>> pending_udp_ops_;
  std::pmr::vector<std::pair<int, Tap>> taps_;
  NetemQdisc egress_;
  std::uint16_t next_ephemeral_ = 49152;
  int next_tap_id_ = 1;
};

}  // namespace lazyeye::simnet
