#include "transport/tcp.h"


namespace lazyeye::transport {

using simnet::Packet;
using simnet::Protocol;
using simnet::TcpFlags;

TcpStack::TcpStack(simnet::Host& host)
    : host_{host},
      connections_{host.network().memory()},
      index_{host.network().memory()} {
  host_.set_protocol_handler(Protocol::kTcp,
                             [this](const Packet& p) { on_packet(p); });
}

TcpStack::~TcpStack() { host_.set_protocol_handler(Protocol::kTcp, nullptr); }

void TcpStack::listen(std::uint16_t port, AcceptHandler on_accept) {
  listeners_[port] = std::move(on_accept);
}

void TcpStack::close_listener(std::uint16_t port) { listeners_.erase(port); }

std::uint64_t TcpStack::connect(const simnet::Endpoint& remote,
                                const TcpOptions& options,
                                ConnectHandler handler) {
  const auto local_addr = host_.address(remote.addr.family());
  if (!local_addr) {
    ConnectResult result;
    result.error = "no local address for family";
    result.remote = remote;
    handler(result);
    return 0;
  }

  const std::uint64_t id = next_id_++;
  ConnectionState conn;
  conn.id = id;
  conn.state = State::kSynSent;
  conn.tuple = FourTuple{{*local_addr, host_.ephemeral_port()}, remote};
  conn.options = options;
  conn.current_rto = options.syn_rto;
  conn.started = host_.network().loop().now();
  conn.on_connect = std::move(handler);
  auto [it, inserted] = connections_.emplace(id, std::move(conn));
  index_.insert(&it->second);
  send_syn(it->second);
  return id;
}

void TcpStack::send_syn(ConnectionState& conn) {
  ++conn.syn_sent;
  send_flags(conn.tuple, TcpFlags{.syn = true});
  const std::uint64_t id = conn.id;
  conn.rto_timer = host_.network().loop().schedule_after(
      conn.current_rto, [this, id] {
        const auto it = connections_.find(id);
        if (it == connections_.end() ||
            it->second.state != State::kSynSent) {
          return;
        }
        ConnectionState& c = it->second;
        if (c.syn_sent > c.options.syn_retries) {
          fail_connect(id, "timeout");
          return;
        }
        c.current_rto = SimTime{static_cast<std::int64_t>(
            static_cast<double>(c.current_rto.count()) *
            c.options.rto_backoff)};
        send_syn(c);
      });
}

void TcpStack::abort(std::uint64_t attempt_id) {
  fail_connect(attempt_id, "cancelled");
}

void TcpStack::fail_connect(std::uint64_t id, const std::string& error) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ConnectionState& conn = it->second;
  host_.network().loop().cancel(conn.rto_timer);
  ConnectHandler handler = std::move(conn.on_connect);
  ConnectResult result;
  result.error = error;
  result.proto = TransportProtocol::kTcp;
  result.local = conn.tuple.local;
  result.remote = conn.tuple.remote;
  result.started = conn.started;
  result.completed = host_.network().loop().now();
  index_.erase(&conn);
  connections_.erase(it);
  if (handler) handler(result);
}

void TcpStack::remove_connection(ConnectionState& conn) {
  index_.erase(&conn);
  connections_.erase(conn.id);
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

TcpStack::ConnectionState* TcpStack::find_by_tuple(const FourTuple& tuple) {
  return index_.find(tuple);
}

void TcpStack::on_packet(const Packet& packet) {
  // Our view of the tuple is mirrored relative to the packet.
  const FourTuple tuple{packet.dst, packet.src};
  ConnectionState* conn = find_by_tuple(tuple);

  if (packet.is_syn() && conn == nullptr) {
    // New inbound connection?
    const auto listener = listeners_.find(packet.dst.port);
    if (listener == listeners_.end()) {
      if (rst_on_closed_) {
        send_flags(tuple, TcpFlags{.ack = true, .rst = true});
      }
      return;
    }
    AcceptAction action = AcceptAction::kAccept;
    if (accept_interposer_) {
      action = accept_interposer_(packet.src, packet.dst.port);
    }
    if (action == AcceptAction::kDrop) return;
    if (action == AcceptAction::kReset) {
      send_flags(tuple, TcpFlags{.ack = true, .rst = true});
      return;
    }
    const std::uint64_t id = next_id_++;
    ConnectionState server_conn;
    server_conn.id = id;
    server_conn.state = State::kSynReceived;
    server_conn.tuple = tuple;
    server_conn.started = host_.network().loop().now();
    auto [sit, sinserted] = connections_.emplace(id, std::move(server_conn));
    index_.insert(&sit->second);
    send_flags(tuple, TcpFlags{.syn = true, .ack = true});
    if (action == AcceptAction::kAcceptThenReset) {
      // Mid-handshake reset: the SYN-ACK is on the wire, the RST chases it.
      send_flags(tuple, TcpFlags{.rst = true});
      remove_connection(sit->second);
    }
    return;
  }

  if (conn == nullptr) {
    // Stray segment for an unknown connection: RST unless it is itself RST.
    if (!packet.is_rst() && rst_on_closed_) {
      send_flags(tuple, TcpFlags{.ack = true, .rst = true});
    }
    return;
  }

  if (packet.is_rst()) {
    if (conn->state == State::kSynSent) {
      fail_connect(conn->id, "refused");
    } else {
      remove_connection(*conn);
    }
    return;
  }

  switch (conn->state) {
    case State::kSynSent:
      if (packet.is_syn_ack()) {
        host_.network().loop().cancel(conn->rto_timer);
        conn->state = State::kEstablished;
        send_flags(conn->tuple, TcpFlags{.ack = true});
        ConnectResult result;
        result.ok = true;
        result.proto = TransportProtocol::kTcp;
        result.local = conn->tuple.local;
        result.remote = conn->tuple.remote;
        result.started = conn->started;
        result.completed = host_.network().loop().now();
        result.connection_id = conn->id;
        if (conn->on_connect) {
          // Move the handler out: it must run exactly once.
          ConnectHandler handler = std::move(conn->on_connect);
          conn->on_connect = nullptr;
          handler(result);
        }
      }
      return;
    case State::kSynReceived:
      if (packet.tcp.ack && !packet.tcp.syn) {
        conn->state = State::kEstablished;
        const auto listener = listeners_.find(conn->tuple.local.port);
        if (listener != listeners_.end() && listener->second) {
          listener->second(conn->id, conn->tuple.remote);
        }
        // Data may ride on the ACK.
        if (!packet.payload.empty() && data_handler_) {
          data_handler_(conn->id, packet.payload);
        }
      }
      return;
    case State::kEstablished:
      if (packet.tcp.fin) {
        remove_connection(*conn);
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
  const auto it = connections_.find(conn_id);
  if (it == connections_.end() || it->second.state != State::kEstablished) {
    return;
  }
  send_flags(it->second.tuple, TcpFlags{.ack = true}, std::move(payload));
}

void TcpStack::close(std::uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  host_.network().loop().cancel(it->second.rto_timer);
  if (it->second.state == State::kEstablished) {
    send_flags(it->second.tuple, TcpFlags{.ack = true, .fin = true});
  }
  index_.erase(&it->second);
  connections_.erase(it);
}

std::size_t TcpStack::established_count() const {
  std::size_t n = 0;
  for (const auto& [id, conn] : connections_) {
    if (conn.state == State::kEstablished) ++n;
  }
  return n;
}

}  // namespace lazyeye::transport
