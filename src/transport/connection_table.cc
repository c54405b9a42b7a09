#include "transport/connection_table.h"

#include <utility>

namespace lazyeye::transport {

namespace {
/// The factor each opening-packet timeout grows by.
constexpr double kRtoBackoff = 2.0;
}  // namespace

ConnectionTable::ConnectionTable(simnet::Host& host, TransportProtocol proto,
                                 SendOpen send_open, Release release)
    : host_{host},
      proto_{proto},
      send_open_{std::move(send_open)},
      release_{std::move(release)},
      connections_{host.network().memory()},
      by_tuple_{host.network().memory()} {}

ConnectionTable::~ConnectionTable() {
  for (const auto& [id, conn] : connections_) {
    host_.network().loop().cancel(conn.rto_timer);
  }
}

Connection* ConnectionTable::open(const simnet::Endpoint& remote,
                                  Retransmit retransmit,
                                  ConnectHandler handler) {
  const auto local_addr = host_.address(remote.addr.family());
  if (!local_addr) {
    ConnectResult failed;
    failed.error = "no local address for family";
    failed.proto = proto_;
    failed.remote = remote;
    handler(failed);
    return nullptr;
  }
  Connection& conn =
      insert(FourTuple{{*local_addr, host_.ephemeral_port()}, remote});
  conn.retransmit = retransmit;
  conn.started = host_.network().loop().now();
  conn.on_connect = std::move(handler);
  send_open(conn);
  return &conn;
}

void ConnectionTable::send_open(Connection& conn) {
  ++conn.sends;
  send_open_(conn.tuple);
  const std::uint64_t id = conn.id;
  conn.rto_timer = host_.network().loop().schedule_after(
      conn.retransmit.rto, [this, id] {
        Connection* c = find(id);
        if (c == nullptr || c->state != ConnState::kOpening) return;
        if (c->sends > c->retransmit.retries) {
          fail(id, "timeout");
          return;
        }
        c->retransmit.rto = SimTime{static_cast<std::int64_t>(
            static_cast<double>(c->retransmit.rto.count()) * kRtoBackoff)};
        send_open(*c);
      });
}

ConnectResult ConnectionTable::result(const Connection& conn) const {
  ConnectResult r;
  r.proto = proto_;
  r.local = conn.tuple.local;
  r.remote = conn.tuple.remote;
  r.started = conn.started;
  r.completed = host_.network().loop().now();
  return r;
}

void ConnectionTable::establish(Connection& conn) {
  host_.network().loop().cancel(conn.rto_timer);
  conn.state = ConnState::kEstablished;
  ConnectResult r = result(conn);
  r.ok = true;
  r.connection_id = conn.id;
  // Moved out first: the handler runs once and may reshape the table.
  if (ConnectHandler handler = std::exchange(conn.on_connect, nullptr)) {
    handler(r);
  }
}

void ConnectionTable::fail(std::uint64_t id, const std::string& error) {
  Connection* conn = find(id);
  if (conn == nullptr) return;
  ConnectHandler handler = std::exchange(conn->on_connect, nullptr);
  ConnectResult r = result(*conn);
  r.error = error;
  remove(*conn);
  if (handler) handler(r);
}

Connection& ConnectionTable::insert(const FourTuple& tuple) {
  const std::uint64_t id = next_id_++;
  Connection& conn = connections_[id];
  conn.id = id;
  conn.tuple = tuple;
  by_tuple_.push_back(TupleEntry{tuple, &conn});
  return conn;
}

Connection& ConnectionTable::accept(const FourTuple& tuple, ConnState state) {
  Connection& conn = insert(tuple);
  conn.state = state;
  conn.started = host_.network().loop().now();
  return conn;
}

void ConnectionTable::accepted(const Connection& conn) {
  const auto listener = listeners_.find(conn.tuple.local.port);
  if (listener != listeners_.end() && listener->second) {
    listener->second(conn.id, conn.tuple.remote);
  }
}

Connection* ConnectionTable::find(const FourTuple& tuple) {
  for (const TupleEntry& entry : by_tuple_) {
    if (entry.tuple == tuple) return entry.conn;
  }
  return nullptr;
}

Connection* ConnectionTable::find(std::uint64_t id) {
  const auto it = connections_.find(id);
  return it != connections_.end() ? &it->second : nullptr;
}

void ConnectionTable::remove(Connection& conn) {
  host_.network().loop().cancel(conn.rto_timer);
  if (release_) release_(conn);
  std::erase_if(by_tuple_,
                [&](const TupleEntry& entry) { return entry.conn == &conn; });
  connections_.erase(conn.id);
}

}  // namespace lazyeye::transport
