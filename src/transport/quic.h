// Minimal QUIC-like handshake over UDP. No simulated client dials it (every
// client connects over TCP) and the two-node world runs no QUIC listener;
// perfbench's mirror world still builds one, and only the transport tests
// exercise connect().
//
// Wire model: UDP datagrams whose payload starts with a one-byte packet type
// ('I' = client Initial, 'H' = server handshake reply, 'D' = app data,
// 'C' = close). One round trip establishes the connection. A connecting
// stack retransmits its Initial on one fixed schedule (see connect()).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "transport/connection_table.h"

namespace lazyeye::transport {

/// True if a UDP payload looks like one of our QUIC packets.
bool is_quic_payload(std::span<const std::uint8_t> payload);

class QuicStack {
 public:
  explicit QuicStack(simnet::Host& host);
  /// Unbinds every UDP port the stack bound: listeners and client ports.
  ~QuicStack();

  QuicStack(const QuicStack&) = delete;
  QuicStack& operator=(const QuicStack&) = delete;

  void listen(std::uint16_t port, AcceptHandler on_accept = {});
  /// Fault-injection hook consulted for every Initial that reaches a
  /// listener (see transport/connection.h). Unset = accept everything.
  void set_accept_interposer(AcceptInterposer hook) {
    table_.set_accept_interposer(std::move(hook));
  }

  /// Sends an Initial and resends it 1 s and 3 s later; with no handshake
  /// reply the attempt fails with "timeout" 7 s after it started.
  std::uint64_t connect(const simnet::Endpoint& remote, ConnectHandler handler);
  void abort(std::uint64_t attempt_id) { table_.fail(attempt_id, "cancelled"); }

  void send_data(std::uint64_t conn_id, simnet::Buffer payload);
  /// Legacy vector entry point: adopts the vector as the payload block.
  void send_data(std::uint64_t conn_id, std::vector<std::uint8_t> payload);
  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }

 private:
  void bind(std::uint16_t port);
  /// Unbinds a leaving connection's client port (listener ports stay).
  void release(const Connection& conn);
  void on_datagram(const simnet::Packet& packet);
  void send_packet(const FourTuple& tuple, char type,
                   simnet::Buffer payload = {});

  simnet::Host& host_;
  ConnectionTable table_;
  DataHandler data_handler_;
};

}  // namespace lazyeye::transport
