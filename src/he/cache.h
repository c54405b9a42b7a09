// Outcome cache: RFC 6555 §4.1 — remember which address won for a host "on
// the order of 10 minutes" and go straight to it next time.
#pragma once

#include <map>
#include <optional>

#include "dns/name.h"
#include "simnet/ip.h"
#include "util/time.h"

namespace lazyeye::he {

class OutcomeCache {
 public:
  /// Returns the cached winner if present and not expired at `now`.
  std::optional<simnet::IpAddress> lookup(const dns::DnsName& host,
                                          SimTime now) const;

  void store(const dns::DnsName& host, const simnet::IpAddress& address,
             SimTime now, SimTime ttl);

  void erase(const dns::DnsName& host) { entries_.erase(host); }
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    simnet::IpAddress address;
    SimTime expiry{0};
  };
  std::map<dns::DnsName, Entry> entries_;
};

}  // namespace lazyeye::he
