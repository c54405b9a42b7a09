#include "transport/quic.h"

namespace lazyeye::transport {

using simnet::Packet;

namespace {
constexpr char kInitial = 'I';
constexpr char kHandshake = 'H';
constexpr char kData = 'D';
constexpr char kClose = 'C';
/// Initial retransmission: first timeout and resends (each timeout doubles).
constexpr SimTime kInitialRto = lazyeye::sec(1);
constexpr int kMaxRetransmits = 2;
}  // namespace

bool is_quic_payload(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return false;
  const char type = static_cast<char>(payload.front());
  return type == 'I' || type == 'H' || type == 'D' || type == 'C';
}

QuicStack::QuicStack(simnet::Host& host)
    : host_{host},
      table_{host, TransportProtocol::kQuic,
             [this](const FourTuple& tuple) { send_packet(tuple, kInitial); },
             [this](const Connection& conn) { release(conn); }} {}

QuicStack::~QuicStack() {
  for (const auto& [id, conn] : table_.connections()) release(conn);
  for (const auto& [port, accept] : table_.listeners()) host_.udp_unbind(port);
}

void QuicStack::bind(std::uint16_t port) {
  host_.udp_bind(port, [this](const Packet& p) { on_datagram(p); });
}

void QuicStack::release(const Connection& conn) {
  if (!table_.listening(conn.tuple.local.port)) {
    host_.udp_unbind(conn.tuple.local.port);
  }
}

void QuicStack::listen(std::uint16_t port, AcceptHandler on_accept) {
  table_.listen(port, std::move(on_accept));
  bind(port);
}

std::uint64_t QuicStack::connect(const simnet::Endpoint& remote,
                                 ConnectHandler handler) {
  const Connection* conn =
      table_.open(remote, {kInitialRto, kMaxRetransmits}, std::move(handler));
  if (conn == nullptr) return 0;
  bind(conn->tuple.local.port);
  return conn->id;
}

void QuicStack::send_packet(const FourTuple& tuple, char type,
                            simnet::Buffer payload) {
  // Control frames (no payload) are one byte: they stay in the Buffer's
  // inline storage; data frames borrow a pooled block.
  simnet::Buffer framed{&host_.network().buffer_pool()};
  framed.reserve(payload.size() + 1);
  framed.push_back(static_cast<std::uint8_t>(type));
  framed.append(payload.span());
  host_.udp_send(tuple.local, tuple.remote, std::move(framed));
}

void QuicStack::on_datagram(const Packet& packet) {
  if (!is_quic_payload(packet.payload)) return;
  const char type = static_cast<char>(packet.payload.front());
  const FourTuple tuple{packet.dst, packet.src};
  Connection* conn = table_.find(tuple);

  if (type == kInitial) {
    if (!table_.listening(packet.dst.port)) return;  // no QUIC service: silent
    const AcceptAction action = table_.admit(packet.src, packet.dst.port);
    if (action == AcceptAction::kDrop) return;
    if (action == AcceptAction::kReset) {
      send_packet(tuple, kClose);
      return;
    }
    if (conn == nullptr) {
      table_.accepted(table_.accept(tuple, ConnState::kEstablished));
    }
    send_packet(tuple, kHandshake);
    if (action == AcceptAction::kAcceptThenReset) {
      send_packet(tuple, kClose);
      if (Connection* created = table_.find(tuple)) table_.remove(*created);
    }
    return;
  }

  if (conn == nullptr) return;

  if (type == kClose) {
    // Nothing sent Close frames before the accept interposer existed, so
    // handling them changes no pre-fault-layer traffic.
    if (conn->state == ConnState::kOpening) {
      table_.fail(conn->id, "refused");
    } else {
      table_.remove(*conn);
    }
    return;
  }

  if (type == kHandshake && conn->state == ConnState::kOpening) {
    table_.establish(*conn);
    return;
  }

  if (type == kData && conn->state == ConnState::kEstablished && data_handler_) {
    data_handler_(conn->id, packet.payload.span().subspan(1));
  }
}

void QuicStack::send_data(std::uint64_t conn_id,
                          std::vector<std::uint8_t> payload) {
  send_data(conn_id, simnet::Buffer::adopt(std::move(payload)));
}

void QuicStack::send_data(std::uint64_t conn_id, simnet::Buffer payload) {
  const Connection* conn = table_.find(conn_id);
  if (conn != nullptr && conn->state == ConnState::kEstablished) {
    send_packet(conn->tuple, kData, std::move(payload));
  }
}

}  // namespace lazyeye::transport
