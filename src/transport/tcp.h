// Minimal TCP model over simnet: three-way handshake, SYN retransmission
// with exponential backoff, RST on closed ports, and reliable-enough data
// segments for the request/response exchanges the experiments need. The
// attempt lifecycle lives in transport/connection_table.h.
//
// Unresponsive *addresses* are modelled by the Network (packets to unowned
// addresses are blackholed). A closed port always answers with RST; a
// listener that drops or refuses SYNs is an accept interposer's kDrop/kReset.
#pragma once

#include <cstdint>
#include <vector>

#include "transport/connection_table.h"

namespace lazyeye::transport {

struct TcpOptions {
  /// Initial SYN retransmission timeout (Linux: 1 s).
  SimTime syn_rto = lazyeye::sec(1);
  /// SYN retransmissions after the initial one before giving up
  /// (Linux default tcp_syn_retries=6 => ~127 s; clients override).
  int syn_retries = 6;
};

/// One TCP endpoint (stack) per host. Installs itself as the host's TCP
/// protocol handler.
class TcpStack {
 public:
  explicit TcpStack(simnet::Host& host);
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  // ---- Server side ---------------------------------------------------------
  void listen(std::uint16_t port, AcceptHandler on_accept = {}) {
    table_.listen(port, std::move(on_accept));
  }
  /// Fault-injection hook consulted for every inbound SYN that reaches a
  /// listener (see transport/connection.h). Unset = accept everything.
  void set_accept_interposer(AcceptInterposer hook) {
    table_.set_accept_interposer(std::move(hook));
  }

  // ---- Client side ---------------------------------------------------------
  /// Starts a connection attempt from the host's address matching the
  /// remote family. Returns an attempt id (0 = immediate failure; the
  /// handler is still invoked exactly once).
  std::uint64_t connect(const simnet::Endpoint& remote, const TcpOptions& options,
                        ConnectHandler handler);
  /// Aborts an in-flight attempt; the handler fires with error "cancelled".
  void abort(std::uint64_t attempt_id) { table_.fail(attempt_id, "cancelled"); }

  // ---- Established connections ---------------------------------------------
  void send_data(std::uint64_t conn_id, simnet::Buffer payload);
  /// Legacy vector entry point: adopts the vector as the payload block.
  void send_data(std::uint64_t conn_id, std::vector<std::uint8_t> payload);
  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }
  void close(std::uint64_t conn_id);

  std::size_t established_count() const;

 private:
  void on_packet(const simnet::Packet& packet);
  void send_flags(const FourTuple& tuple, simnet::TcpFlags flags,
                  simnet::Buffer payload = {});

  simnet::Host& host_;
  ConnectionTable table_;
  DataHandler data_handler_;
};

}  // namespace lazyeye::transport
