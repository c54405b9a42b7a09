#include "simnet/netem.h"

#include <algorithm>

namespace lazyeye::simnet {

bool PacketFilter::matches(const Packet& p) const {
  if (family && p.family() != *family) return false;
  if (proto && p.proto != *proto) return false;
  if (src_addr && p.src.addr != *src_addr) return false;
  if (dst_addr && p.dst.addr != *dst_addr) return false;
  if (src_port && p.src.port != *src_port) return false;
  if (dst_port && p.dst.port != *dst_port) return false;
  return true;
}

namespace {

bool destination_only(const PacketFilter& f) {
  return f.dst_addr && !f.family && !f.proto && !f.src_addr && !f.src_port &&
         !f.dst_port;
}

}  // namespace

auto NetemQdisc::lower_dst(const IpAddress& addr) const
    -> std::pmr::vector<DstEntry>::const_iterator {
  return std::lower_bound(
      by_dst_.begin(), by_dst_.end(), addr,
      [](const DstEntry& e, const IpAddress& a) { return e.addr < a; });
}

void NetemQdisc::add_rule(NetemRule rule) {
  const auto index = static_cast<std::uint32_t>(rules_.size());
  if (destination_only(rule.filter)) {
    const IpAddress& addr = *rule.filter.dst_addr;
    const auto it = lower_dst(addr);
    // A later rule for an indexed address can never be the first match.
    if (it == by_dst_.end() || it->addr != addr) {
      by_dst_.insert(it, DstEntry{addr, index});
    }
  } else {
    scanned_.push_back(index);
  }
  rules_.push_back(std::move(rule));
}

NetemVerdict NetemQdisc::process(const Packet& p, Rng& rng) const {
  auto first = static_cast<std::uint32_t>(rules_.size());
  if (const auto it = lower_dst(p.dst.addr);
      it != by_dst_.end() && it->addr == p.dst.addr) {
    first = it->rule;
  }
  for (const std::uint32_t index : scanned_) {
    if (index >= first) break;
    if (rules_[index].filter.matches(p)) {
      first = index;
      break;
    }
  }
  if (first == rules_.size()) return {};

  const NetemSpec& spec = rules_[first].spec;
  NetemVerdict verdict;
  if (spec.loss > 0.0 && rng.chance(spec.loss)) {
    verdict.dropped = true;
    return verdict;
  }
  SimTime d = spec.delay;
  if (spec.jitter.count() > 0) {
    d += rng.next_duration(-spec.jitter, spec.jitter);
  }
  verdict.extra_delay = std::max(SimTime{0}, d);
  return verdict;
}

}  // namespace lazyeye::simnet
