// Network fabric: connects hosts, routes packets by destination address,
// applies link delay + netem shaping.
//
// Packets addressed to an IP no host owns are silently dropped — that is
// exactly the "addresses that do not respond at all" behaviour the paper's
// address-selection test case relies on.
//
// A packet moves once per hop: Host::send_packet and send() take it by
// rvalue reference, send() parks it in a recycled flight slot, and the
// delivery callback hands the receiver a reference to the parked packet.
// Payload bytes recycle through a per-Network BufferPool, so the per-packet
// path is allocation-free in steady state, and the delivery closure
// captures only {network, target, slot}, which fits the EventLoop
// callback's small-buffer storage.
//
// Routes are a vector of (address, host) pairs sorted by address and
// searched with lower_bound: a world holds a few dozen addresses at most,
// too few for hashing to pay.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "simnet/buffer.h"
#include "simnet/event_loop.h"
#include "simnet/host.h"
#include "simnet/netem.h"
#include "simnet/scenario_pool.h"
#include "util/rng.h"

namespace lazyeye::simnet {

struct NetworkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped_netem = 0;
  std::uint64_t packets_blackholed = 0;  // no host owns the dst address
};

class Network {
 public:
  /// Standalone world: owns its BufferPool, containers use the global
  /// allocator. The long-lived path for tests and persistent deployments.
  explicit Network(std::uint64_t seed = 1);
  /// World-pooled cell construction: payload blocks recycle through
  /// `world.buffers` and every container (loop tables, host lists, routes,
  /// flight slots) draws from `world.arena` — a warm lease builds the whole
  /// Network without touching the heap, and teardown is the arena reset.
  Network(WorldMemory& world, std::uint64_t seed);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventLoop& loop() { return loop_; }
  Rng& rng() { return rng_; }

  /// Pool backing packet payloads in this world. Hosts and protocol stacks
  /// build their send buffers from it so steady-state traffic recycles a
  /// bounded set of blocks.
  BufferPool& buffer_pool() { return *pool_; }

  /// Memory resource this world's containers draw from (the lease's arena
  /// for pooled worlds, the global resource otherwise). Stacks and other
  /// per-world satellites allocate their tables from it.
  std::pmr::memory_resource* memory() const { return mem_; }

  /// Creates a host attached to this network. The Network owns it.
  Host& add_host(std::string name);
  /// The host that registered `addr` last, or nullptr if none owns it.
  Host* route(const IpAddress& addr);

  /// One-way base propagation delay applied to every packet (200 us,
  /// modelling the paper's directly connected testbed hosts).
  static constexpr SimTime base_delay() {
    return std::chrono::microseconds{200};
  }

  /// Network-wide netem rules (evaluated after the sender's egress qdisc).
  NetemQdisc& qdisc() { return qdisc_; }

  /// Ships a packet from `from`; applies egress + network shaping and
  /// schedules delivery. Called by Host::send_packet.
  void send(Host& from, Packet&& p);

  const NetworkStats& stats() const { return stats_; }

  // Registers an address -> host mapping (called by Host::add_address).
  void register_address(const IpAddress& addr, Host& host);

 private:
  Network(BufferPool* pool, std::pmr::memory_resource* mem,
          std::uint64_t seed);

  std::uint32_t acquire_flight_slot();

  // Declared first so it is destroyed LAST: pending loop callbacks and
  // parked flight packets own pool-backed Buffers whose destructors release
  // blocks into the pool during ~Network. (Pooled worlds point pool_ at the
  // lease's BufferPool instead, which outlives the arena by construction.)
  BufferPool owned_pool_;
  BufferPool* pool_;
  std::pmr::memory_resource* mem_;
  EventLoop loop_;
  Rng rng_;
  NetemQdisc qdisc_;
  /// Hosts are constructed in mem_ storage and destroyed (reverse order) by
  /// ~Network, so ownership is identical on both construction paths.
  std::pmr::vector<Host*> hosts_;
  /// Address -> owning host, sorted by address for lower_bound lookup.
  std::pmr::vector<std::pair<IpAddress, Host*>> routes_;
  /// Parking lot for packets between send() and delivery; a deque, so a
  /// parked packet never moves. Slots are recycled through flight_free_,
  /// so steady-state traffic allocates nothing once the in-flight
  /// high-water mark is reached.
  std::pmr::deque<Packet> flight_;
  std::pmr::vector<std::uint32_t> flight_free_;
  NetworkStats stats_;
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace lazyeye::simnet
