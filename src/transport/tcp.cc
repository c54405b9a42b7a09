#include "transport/tcp.h"

#include <algorithm>

namespace lazyeye::transport {

using simnet::Packet;
using simnet::Protocol;
using simnet::TcpFlags;

TcpStack::TcpStack(simnet::Host& host)
    : host_{host},
      table_{host, TransportProtocol::kTcp, [this](const FourTuple& tuple) {
               send_flags(tuple, TcpFlags{.syn = true});
             }} {
  host_.set_protocol_handler(Protocol::kTcp,
                             [this](const Packet& p) { on_packet(p); });
}

TcpStack::~TcpStack() { host_.set_protocol_handler(Protocol::kTcp, nullptr); }

std::uint64_t TcpStack::connect(const simnet::Endpoint& remote,
                                const TcpOptions& options,
                                ConnectHandler handler) {
  const Connection* conn = table_.open(
      remote, {options.syn_rto, options.syn_retries}, std::move(handler));
  return conn != nullptr ? conn->id : 0;
}

void TcpStack::send_flags(const FourTuple& tuple, TcpFlags flags,
                          simnet::Buffer payload) {
  Packet p;
  p.proto = Protocol::kTcp;
  p.src = tuple.local;
  p.dst = tuple.remote;
  p.tcp = flags;
  p.payload = std::move(payload);
  host_.send_packet(std::move(p));
}

void TcpStack::on_packet(const Packet& packet) {
  // Our view of the tuple is mirrored relative to the packet.
  const FourTuple tuple{packet.dst, packet.src};
  Connection* conn = table_.find(tuple);

  if (packet.is_syn() && conn == nullptr) {
    // New inbound connection?
    if (!table_.listening(packet.dst.port)) {
      send_flags(tuple, TcpFlags{.ack = true, .rst = true});
      return;
    }
    const AcceptAction action = table_.admit(packet.src, packet.dst.port);
    if (action == AcceptAction::kDrop) return;
    if (action == AcceptAction::kReset) {
      send_flags(tuple, TcpFlags{.ack = true, .rst = true});
      return;
    }
    Connection& server_conn = table_.accept(tuple, ConnState::kHalfOpen);
    send_flags(tuple, TcpFlags{.syn = true, .ack = true});
    if (action == AcceptAction::kAcceptThenReset) {
      // Mid-handshake reset: the SYN-ACK is on the wire, the RST chases it.
      send_flags(tuple, TcpFlags{.rst = true});
      table_.remove(server_conn);
    }
    return;
  }

  if (conn == nullptr) {
    // Stray segment for an unknown connection: RST unless it is itself RST.
    if (!packet.is_rst()) {
      send_flags(tuple, TcpFlags{.ack = true, .rst = true});
    }
    return;
  }

  if (packet.is_rst()) {
    if (conn->state == ConnState::kOpening) {
      table_.fail(conn->id, "refused");
    } else {
      table_.remove(*conn);
    }
    return;
  }

  switch (conn->state) {
    case ConnState::kOpening:
      if (packet.is_syn_ack()) {
        send_flags(conn->tuple, TcpFlags{.ack = true});
        table_.establish(*conn);
      }
      return;
    case ConnState::kHalfOpen:
      if (packet.tcp.ack && !packet.tcp.syn) {
        conn->state = ConnState::kEstablished;
        table_.accepted(*conn);
        // Data may ride on the ACK.
        if (!packet.payload.empty() && data_handler_) {
          data_handler_(conn->id, packet.payload);
        }
      }
      return;
    case ConnState::kEstablished:
      if (packet.tcp.fin) {
        table_.remove(*conn);
        return;
      }
      if (!packet.payload.empty() && data_handler_) {
        data_handler_(conn->id, packet.payload);
      }
      return;
  }
}

void TcpStack::send_data(std::uint64_t conn_id,
                         std::vector<std::uint8_t> payload) {
  send_data(conn_id, simnet::Buffer::adopt(std::move(payload)));
}

void TcpStack::send_data(std::uint64_t conn_id, simnet::Buffer payload) {
  const Connection* conn = table_.find(conn_id);
  if (conn != nullptr && conn->state == ConnState::kEstablished) {
    send_flags(conn->tuple, TcpFlags{.ack = true}, std::move(payload));
  }
}

void TcpStack::close(std::uint64_t conn_id) {
  Connection* conn = table_.find(conn_id);
  if (conn == nullptr) return;
  if (conn->state == ConnState::kEstablished) {
    send_flags(conn->tuple, TcpFlags{.ack = true, .fin = true});
  }
  table_.remove(*conn);
}

std::size_t TcpStack::established_count() const {
  return std::ranges::count_if(table_.connections(), [](const auto& entry) {
    return entry.second.state == ConnState::kEstablished;
  });
}

}  // namespace lazyeye::transport
