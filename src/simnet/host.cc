#include "simnet/host.h"

#include <algorithm>
#include <stdexcept>

#include "simnet/network.h"
#include "util/strings.h"

namespace lazyeye::simnet {

Host::Host(Network& net, std::string name)
    : net_{net},
      name_{std::move(name)},
      addresses_{net.memory()},
      udp_ports_{net.memory()},
      pending_udp_ops_{net.memory()},
      taps_{net.memory()},
      egress_{net.memory()} {}

void Host::add_address(const IpAddress& addr) {
  if (owns_address(addr)) return;
  addresses_.push_back(addr);
  net_.register_address(addr, *this);
}

std::optional<IpAddress> Host::address(Family family) const {
  for (const IpAddress& a : addresses_) {
    if (a.family() == family) return a;
  }
  return std::nullopt;
}

bool Host::owns_address(const IpAddress& addr) const {
  return std::find(addresses_.begin(), addresses_.end(), addr) !=
         addresses_.end();
}

Host::UdpBinding* Host::find_udp_binding(std::uint16_t port) {
  const auto it = std::lower_bound(
      udp_ports_.begin(), udp_ports_.end(), port,
      [](const UdpBinding& b, std::uint16_t p) { return b.port < p; });
  if (it == udp_ports_.end() || it->port != port) return nullptr;
  return &*it;
}

void Host::apply_udp_op(std::uint16_t port, UdpHandler handler) {
  const auto it = std::lower_bound(
      udp_ports_.begin(), udp_ports_.end(), port,
      [](const UdpBinding& b, std::uint16_t p) { return b.port < p; });
  if (it != udp_ports_.end() && it->port == port) {
    if (handler) {
      it->handler = std::move(handler);
    } else {
      udp_ports_.erase(it);
    }
    return;
  }
  if (handler) udp_ports_.insert(it, UdpBinding{port, std::move(handler)});
}

void Host::flush_pending_udp_ops() {
  // Applied in arrival order so unbind-then-rebind sequences issued from
  // inside a handler land exactly as they would have outside a dispatch.
  for (auto& [port, handler] : pending_udp_ops_) {
    apply_udp_op(port, std::move(handler));
  }
  pending_udp_ops_.clear();
}

void Host::udp_bind(std::uint16_t port, UdpHandler handler) {
  if (dispatch_depth_ > 0) {
    pending_udp_ops_.emplace_back(port, std::move(handler));
    return;
  }
  apply_udp_op(port, std::move(handler));
}

void Host::udp_unbind(std::uint16_t port) {
  if (dispatch_depth_ > 0) {
    pending_udp_ops_.emplace_back(port, UdpHandler{});
    return;
  }
  apply_udp_op(port, UdpHandler{});
}

void Host::udp_send(const Endpoint& src, const Endpoint& dst,
                    Buffer payload) {
  Packet p;
  p.proto = Protocol::kUdp;
  p.src = src;
  p.dst = dst;
  p.payload = std::move(payload);
  send_packet(std::move(p));
}

void Host::send_packet(Packet&& p) {
  if (!owns_address(p.src.addr)) {
    throw std::logic_error(str_format(
        "host %s sending from unowned address %s", name_.c_str(),
        p.src.addr.to_string().c_str()));
  }
  if (p.src.addr.family() != p.dst.addr.family()) {
    throw std::logic_error("source/destination address family mismatch");
  }
  notify_taps(p, TapDirection::kEgress);
  net_.send(*this, std::move(p));
}

void Host::set_protocol_handler(Protocol proto, ProtocolHandler handler) {
  protocol_handlers_[static_cast<std::size_t>(proto)] = std::move(handler);
}

std::uint16_t Host::ephemeral_port() {
  const std::uint16_t port = next_ephemeral_;
  next_ephemeral_ = (next_ephemeral_ == 65535) ? 49152 : next_ephemeral_ + 1;
  return port;
}

int Host::add_tap(Tap tap) {
  const int id = next_tap_id_++;
  taps_.emplace_back(id, std::move(tap));
  return id;
}

void Host::remove_tap(int id) {
  std::erase_if(taps_, [id](const auto& pair) { return pair.first == id; });
}

void Host::deliver(const Packet& p) {
  notify_taps(p, TapDirection::kIngress);
  ++dispatch_depth_;
  // RAII so a throwing handler still unwinds the depth and flushes —
  // otherwise every later bind/unbind would queue forever.
  struct DispatchGuard {
    Host& host;
    ~DispatchGuard() {
      if (--host.dispatch_depth_ == 0) host.flush_pending_udp_ops();
    }
  } guard{*this};
  // The handler reference stays valid for the whole call: bind/unbind from
  // inside it are deferred (dispatch_depth_ > 0), so the flat table cannot
  // reallocate or erase under the executing handler.
  if (p.proto == Protocol::kUdp) {
    if (UdpBinding* binding = find_udp_binding(p.dst.port)) {
      binding->handler(p);
      return;
    }
  }
  if (ProtocolHandler& handler =
          protocol_handlers_[static_cast<std::size_t>(p.proto)];
      handler) {
    handler(p);
  }
  // No binding and no protocol handler: the packet is dropped.
}

void Host::notify_taps(const Packet& p, TapDirection dir) {
  for (auto& [id, tap] : taps_) tap(p, dir);
}

}  // namespace lazyeye::simnet
