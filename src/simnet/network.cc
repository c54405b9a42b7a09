#include "simnet/network.h"

#include <algorithm>
#include <new>

namespace lazyeye::simnet {

namespace {
using Route = std::pair<IpAddress, Host*>;

// The first route whose address is not below `addr`.
std::pmr::vector<Route>::iterator lower_route(std::pmr::vector<Route>& routes,
                                              const IpAddress& addr) {
  return std::lower_bound(
      routes.begin(), routes.end(), addr,
      [](const Route& route, const IpAddress& a) { return route.first < a; });
}
}  // namespace

Network::Network(std::uint64_t seed)
    : Network{nullptr, std::pmr::get_default_resource(), seed} {}

Network::Network(WorldMemory& world, std::uint64_t seed)
    : Network{&world.buffers, &world.arena, seed} {}

Network::Network(BufferPool* pool, std::pmr::memory_resource* mem,
                 std::uint64_t seed)
    : pool_{pool != nullptr ? pool : &owned_pool_},
      mem_{mem},
      loop_{mem},
      rng_{seed},
      qdisc_{mem},
      hosts_{mem},
      routes_{mem},
      flight_{mem},
      flight_free_{mem} {}

Network::~Network() {
  // Reverse creation order, exactly like the old vector<unique_ptr<Host>>.
  for (auto it = hosts_.rbegin(); it != hosts_.rend(); ++it) {
    Host* host = *it;
    host->~Host();
    mem_->deallocate(host, sizeof(Host), alignof(Host));
  }
  hosts_.clear();
}

Host& Network::add_host(std::string name) {
  void* storage = mem_->allocate(sizeof(Host), alignof(Host));
  Host* host = ::new (storage) Host(*this, std::move(name));
  hosts_.push_back(host);
  return *host;
}

Host* Network::route(const IpAddress& addr) {
  const auto it = lower_route(routes_, addr);
  return it != routes_.end() && it->first == addr ? it->second : nullptr;
}

void Network::register_address(const IpAddress& addr, Host& host) {
  const auto it = lower_route(routes_, addr);
  if (it != routes_.end() && it->first == addr) {
    it->second = &host;  // a later registration wins
  } else {
    routes_.emplace(it, addr, &host);
  }
}

std::uint32_t Network::acquire_flight_slot() {
  if (!flight_free_.empty()) {
    const std::uint32_t slot = flight_free_.back();
    flight_free_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(flight_.size());
  flight_.emplace_back();
  flight_free_.reserve(flight_.size());  // release below never reallocates
  return slot;
}

void Network::send(Host& from, Packet&& p) {
  p.id = next_packet_id_++;
  ++stats_.packets_sent;

  SimTime extra{0};
  const NetemVerdict egress = from.egress().process(p, rng_);
  if (egress.dropped) {
    ++stats_.packets_dropped_netem;
    return;
  }
  extra += egress.extra_delay;

  const NetemVerdict net_verdict = qdisc_.process(p, rng_);
  if (net_verdict.dropped) {
    ++stats_.packets_dropped_netem;
    return;
  }
  extra += net_verdict.extra_delay;

  Host* target = route(p.dst.addr);
  if (target == nullptr) {
    // Unowned destination: silently blackholed (unresponsive address).
    ++stats_.packets_blackholed;
    return;
  }

  // Park the packet (its one move on this hop) in a recycled slot; the
  // closure captures 20 bytes and stays inside the EventLoop callback's
  // small-buffer storage, so the hottest callback in the system schedules
  // without touching the heap.
  const std::uint32_t slot = acquire_flight_slot();
  flight_[slot] = std::move(p);

  const SimTime when = loop_.now() + base_delay() + extra;
  loop_.schedule_at(when, [this, target, slot] {
    // Delivered where it is parked: packets the handler sends take other
    // slots, and flight_ never relocates its elements. The slot (and the
    // payload's pooled block) is freed once the handler returns or throws.
    struct Land {
      Network& net;
      std::uint32_t slot;
      ~Land() {
        net.flight_[slot].payload = Buffer{};
        net.flight_free_.push_back(slot);
      }
    } land{*this, slot};
    ++stats_.packets_delivered;
    target->deliver(flight_[slot]);
  });
}

}  // namespace lazyeye::simnet
