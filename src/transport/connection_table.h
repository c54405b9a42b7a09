// Connection table shared by the TCP and QUIC stacks: the attempt lifecycle
// both protocols have in common. A stack keeps only its wire form and drives
// every connection through here: open an attempt, retransmit its opening
// packet with exponential backoff, establish or fail it (the ConnectHandler
// runs exactly once), accept on a listening port, find, and remove.
//
// Connections live in an id-ordered, node-based map, so a Connection& stays
// valid while handlers open and abort siblings. Every packet looks its
// connection up by tuple, through a flat side index of {tuple, connection}
// entries appended in id order and erased by remove(): the scan reads
// contiguous tuples instead of map nodes, and its first match is still the
// lowest id. A stack holds at most a few dozen live connections (19 on the
// paper's grids).
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

#include "simnet/network.h"
#include "transport/connection.h"

namespace lazyeye::transport {

enum class ConnState : std::uint8_t {
  kOpening,   // client: opening packet sent, awaiting the answer
  kHalfOpen,  // server: TCP SYN-RECEIVED, awaiting the final ACK
  kEstablished,
};

/// Opening-packet retransmission: first timeout and resends before the
/// attempt fails with "timeout". Each timeout doubles the last.
struct Retransmit {
  SimTime rto{0};
  int retries = 0;
};

struct Connection {
  std::uint64_t id = 0;
  ConnState state = ConnState::kOpening;
  FourTuple tuple;
  Retransmit retransmit;  // rto holds the current, backed-off timeout
  int sends = 0;
  SimTime started{0};
  simnet::TimerId rto_timer;
  ConnectHandler on_connect;  // client side only
};

class ConnectionTable {
 public:
  /// Puts the protocol's opening packet (SYN / Initial) on the wire.
  using SendOpen = std::function<void(const FourTuple&)>;
  /// Runs as a connection leaves the table, before its failure handler.
  using Release = std::function<void(const Connection&)>;

  ConnectionTable(simnet::Host& host, TransportProtocol proto,
                  SendOpen send_open, Release release = {});
  /// Cancels the pending retransmit timers, which point at the table.
  ~ConnectionTable();

  ConnectionTable(const ConnectionTable&) = delete;
  ConnectionTable& operator=(const ConnectionTable&) = delete;

  // ---- Client side ---------------------------------------------------------
  /// Starts an attempt from the host's address of the remote's family and
  /// sends the opening packet. nullptr when the host has no such address;
  /// the handler has then already run with the failure.
  Connection* open(const simnet::Endpoint& remote, Retransmit retransmit,
                   ConnectHandler handler);
  /// Marks the connection established and runs its handler, if not yet run.
  void establish(Connection& conn);
  /// Removes connection `id`, then runs its handler, if not yet run, with
  /// `error`. No-op for unknown ids.
  void fail(std::uint64_t id, const std::string& error);

  // ---- Server side ---------------------------------------------------------
  void listen(std::uint16_t port, AcceptHandler on_accept) {
    listeners_[port] = std::move(on_accept);
  }
  bool listening(std::uint16_t port) const { return listeners_.contains(port); }
  const std::map<std::uint16_t, AcceptHandler>& listeners() const {
    return listeners_;
  }
  void set_accept_interposer(AcceptInterposer hook) {
    accept_interposer_ = std::move(hook);
  }
  /// Verdict on an opening packet from `peer` that reached listening `port`.
  AcceptAction admit(const simnet::Endpoint& peer, std::uint16_t port) const {
    return accept_interposer_ ? accept_interposer_(peer, port)
                              : AcceptAction::kAccept;
  }
  /// Adds an inbound connection.
  Connection& accept(const FourTuple& tuple, ConnState state);
  /// Runs the accept handler of the listener `conn` arrived on.
  void accepted(const Connection& conn);

  // ---- Both sides ----------------------------------------------------------
  /// Lowest-id connection with `tuple`, or nullptr.
  Connection* find(const FourTuple& tuple);
  /// Connection `id`, or nullptr.
  Connection* find(std::uint64_t id);
  void remove(Connection& conn);
  const std::pmr::map<std::uint64_t, Connection>& connections() const {
    return connections_;
  }

 private:
  /// Adds a connection with the next id to the map and the tuple index.
  Connection& insert(const FourTuple& tuple);
  void send_open(Connection& conn);
  ConnectResult result(const Connection& conn) const;

  struct TupleEntry {
    FourTuple tuple;
    Connection* conn;  // a map node: stable until remove()
  };

  simnet::Host& host_;
  TransportProtocol proto_;
  SendOpen send_open_;
  Release release_;
  std::pmr::map<std::uint64_t, Connection> connections_;
  std::pmr::vector<TupleEntry> by_tuple_;  // ascending id
  std::map<std::uint16_t, AcceptHandler> listeners_;
  AcceptInterposer accept_interposer_;
  std::uint64_t next_id_ = 1;
};

}  // namespace lazyeye::transport
