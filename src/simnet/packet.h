// Simulated packet model.
//
// A Packet carries just enough structure for the experiments: address family
// (implied by endpoints), transport protocol, TCP handshake flags, and an
// opaque payload (real DNS wire bytes for UDP port 53 traffic). The payload
// is a pooled simnet::Buffer: tiny payloads (TCP control segments, one-byte
// QUIC frames) live inline in the packet, DNS wire blocks recycle through
// the owning Network's BufferPool, and moving a Packet never copies bytes.
#pragma once

#include <cstdint>

#include "simnet/buffer.h"
#include "simnet/ip.h"

namespace lazyeye::simnet {

enum class Protocol : std::uint8_t { kUdp, kTcp };

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool rst = false;
  bool fin = false;

  bool operator==(const TcpFlags&) const = default;
};

struct Packet {
  std::uint64_t id = 0;  // unique per Network, assigned on send
  Protocol proto = Protocol::kUdp;
  Endpoint src;
  Endpoint dst;
  TcpFlags tcp;  // meaningful only for proto == kTcp
  Buffer payload;

  Family family() const { return dst.addr.family(); }

  bool is_syn() const {
    return proto == Protocol::kTcp && tcp.syn && !tcp.ack && !tcp.rst;
  }
  bool is_syn_ack() const {
    return proto == Protocol::kTcp && tcp.syn && tcp.ack && !tcp.rst;
  }
  bool is_rst() const { return proto == Protocol::kTcp && tcp.rst; }
};

}  // namespace lazyeye::simnet
