// Packet capture: a host tap that records every packet with its virtual
// timestamp (the simulated equivalent of tcpdump on the client node,
// paper §4.3 (i)).
//
// Recorded payload bytes are copied into blocks borrowed from the owning
// Network's BufferPool, and the packet list grows from the Network's memory
// resource — in an arena-backed cell world the whole capture costs nothing
// on the global heap once the lease is warm. A capture records from
// construction to destruction; readers filter packets() themselves.
#pragma once

#include <memory_resource>
#include <span>
#include <vector>

#include "simnet/host.h"

namespace lazyeye::capture {

struct CapturedPacket {
  SimTime time{0};
  simnet::TapDirection direction = simnet::TapDirection::kEgress;
  simnet::Packet packet;

  bool egress() const { return direction == simnet::TapDirection::kEgress; }
};

class PacketCapture {
 public:
  /// Attaches to the host and starts capturing immediately.
  explicit PacketCapture(simnet::Host& host);
  ~PacketCapture();

  PacketCapture(const PacketCapture&) = delete;
  PacketCapture& operator=(const PacketCapture&) = delete;

  std::span<const CapturedPacket> packets() const { return packets_; }
  std::size_t size() const { return packets_.size(); }

 private:
  simnet::Host& host_;
  int tap_id_ = 0;
  std::pmr::vector<CapturedPacket> packets_;
};

}  // namespace lazyeye::capture
