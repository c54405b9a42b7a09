#include "he/cache.h"

namespace lazyeye::he {

std::optional<simnet::IpAddress> OutcomeCache::lookup(const dns::DnsName& host,
                                                      SimTime now) const {
  const auto it = entries_.find(host);
  if (it == entries_.end()) return std::nullopt;
  if (it->second.expiry <= now) return std::nullopt;
  return it->second.address;
}

void OutcomeCache::store(const dns::DnsName& host,
                         const simnet::IpAddress& address, SimTime now,
                         SimTime ttl) {
  if (ttl.count() <= 0) return;
  entries_[host] = Entry{address, now + ttl};
}

}  // namespace lazyeye::he
