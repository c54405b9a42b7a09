// tc-netem-style traffic shaping.
//
// The paper shapes traffic with `tc-netem` on the server host (delaying IPv6
// packets for CAD tests) and per measurement-address pairs (web tool). A
// NetemQdisc holds an ordered rule list; the first matching rule's spec is
// applied (extra delay, jitter, probabilistic loss).
//
// A rule whose filter names only a destination address (the web tool's one
// rule per bucket address) is found by a binary search of an address index
// instead of a scan; only the other rules are scanned, in order, and only
// up to the index's hit. The lower rule index of the two wins, so the rule
// applied, and with it every rng draw, is the one a plain in-order scan of
// all rules picks.
#pragma once

#include <memory_resource>
#include <optional>
#include <string>
#include <vector>

#include "simnet/packet.h"
#include "util/rng.h"
#include "util/time.h"

namespace lazyeye::simnet {

/// What to do with a matching packet.
struct NetemSpec {
  SimTime delay{0};
  SimTime jitter{0};   // uniform in [delay - jitter, delay + jitter], >= 0
  double loss = 0.0;   // drop probability in [0, 1]

  static NetemSpec delay_only(SimTime d) { return NetemSpec{d, SimTime{0}, 0.0}; }
};

/// Packet match criteria; unset fields match anything.
struct PacketFilter {
  std::optional<Family> family;
  std::optional<Protocol> proto;
  std::optional<IpAddress> src_addr;
  std::optional<IpAddress> dst_addr;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;

  bool matches(const Packet& p) const;

  static PacketFilter any() { return {}; }
  static PacketFilter for_family(Family f) {
    PacketFilter pf;
    pf.family = f;
    return pf;
  }
  static PacketFilter to_address(IpAddress a) {
    PacketFilter pf;
    pf.dst_addr = std::move(a);
    return pf;
  }
};

struct NetemRule {
  PacketFilter filter;
  NetemSpec spec;
  std::string label;  // for diagnostics
};

/// Result of passing a packet through a qdisc.
struct NetemVerdict {
  bool dropped = false;
  SimTime extra_delay{0};
};

class NetemQdisc {
 public:
  /// Rules draw from `memory`: the owning host's or network's resource, so
  /// shaping an arena-built world allocates nothing on the global heap.
  explicit NetemQdisc(
      std::pmr::memory_resource* memory = std::pmr::get_default_resource())
      : rules_{memory}, scanned_{memory}, by_dst_{memory} {}

  /// Appends a rule; rules are evaluated in insertion order, first match wins.
  void add_rule(NetemRule rule);
  void add_rule(PacketFilter filter, NetemSpec spec, std::string label = {}) {
    add_rule(NetemRule{std::move(filter), spec, std::move(label)});
  }

  /// Applies the first matching rule. `rng` supplies jitter/loss randomness.
  NetemVerdict process(const Packet& p, Rng& rng) const;

 private:
  struct DstEntry {
    IpAddress addr;
    std::uint32_t rule;  // the first destination-only rule for `addr`
  };
  /// The first index entry whose address is not below `addr`.
  std::pmr::vector<DstEntry>::const_iterator lower_dst(
      const IpAddress& addr) const;

  std::pmr::vector<NetemRule> rules_;        // insertion order
  std::pmr::vector<std::uint32_t> scanned_;  // every other rule, ascending
  std::pmr::vector<DstEntry> by_dst_;        // sorted by addr, unique
};

}  // namespace lazyeye::simnet
