#include "capture/capture.h"

#include "simnet/network.h"

namespace lazyeye::capture {

PacketCapture::PacketCapture(simnet::Host& host)
    : host_{host}, packets_{host.network().memory()} {
  tap_id_ = host_.add_tap(
      [this](const simnet::Packet& packet, simnet::TapDirection dir) {
        // Field-by-field copy with a pooled payload block: a plain Packet
        // copy would deep-copy into an unpooled Buffer, costing one heap
        // allocation per captured packet with a >SBO payload.
        simnet::Packet copy;
        copy.id = packet.id;
        copy.proto = packet.proto;
        copy.src = packet.src;
        copy.dst = packet.dst;
        copy.tcp = packet.tcp;
        copy.payload = simnet::Buffer{&host_.network().buffer_pool()};
        copy.payload.append(packet.payload.span());
        packets_.push_back(CapturedPacket{host_.network().loop().now(), dir,
                                          std::move(copy)});
      });
}

PacketCapture::~PacketCapture() { host_.remove_tap(tap_id_); }

}  // namespace lazyeye::capture
