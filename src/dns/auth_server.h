// Authoritative DNS server (paper §4.1 (ii)).
//
// Serves one or more zones over simulated UDP. Its one delay mechanism is
// the per-query delay encoded in the qname (TestParams), so a single
// deployment supports every client test configuration; the resolver
// measurements delay IPv6 with netem shaping instead.
//
// Every query is appended to a query log with its arrival timestamp and
// transport family — the resolver study (§5.3) evaluates resolvers purely
// from this authoritative-side log.
//
// The server always answers what it logs. Every misbehaviour, silence
// included, goes through the response interposer (ResponseDirectives::drop).
#pragma once

#include <memory>
#include <memory_resource>
#include <vector>

#include "dns/interpose.h"
#include "dns/message.h"
#include "dns/message_pool.h"
#include "dns/test_params.h"
#include "dns/zone.h"
#include "simnet/host.h"
#include "simnet/network.h"

namespace lazyeye::dns {

struct QueryLogEntry {
  SimTime time{0};
  simnet::Family family = simnet::Family::kIpv4;
  simnet::Endpoint client;
  simnet::Endpoint server;  // which of our addresses was queried
  DnsName qname;
  RrType qtype = RrType::kA;
  std::uint16_t txn_id = 0;
};

class AuthServer {
 public:
  /// Binds to `port` on all of the host's addresses.
  explicit AuthServer(simnet::Host& host, std::uint16_t port = 53);
  ~AuthServer();

  AuthServer(const AuthServer&) = delete;
  AuthServer& operator=(const AuthServer&) = delete;

  /// Adds a zone this server is authoritative for.
  Zone& add_zone(DnsName origin);

  /// Fault-injection hook on the response path (see dns/interpose.h).
  /// Unset (the default) costs one branch per response.
  void set_response_interposer(ResponseInterposer hook) {
    interposer_ = std::move(hook);
  }

  const std::pmr::vector<QueryLogEntry>& query_log() const {
    return query_log_;
  }

 private:
  void on_query(const simnet::Packet& packet);
  /// Fills `response` (a reused scratch envelope) for `query`.
  void build_response(const DnsMessage& query, DnsMessage& response);
  void send_response(const simnet::Endpoint& from, const simnet::Endpoint& to,
                     simnet::Buffer wire, SimTime delay);

  simnet::Host& host_;
  std::uint16_t port_;
  std::pmr::vector<std::unique_ptr<Zone>> zones_;
  // In the world's memory: the log grows on retained arena chunks.
  std::pmr::vector<QueryLogEntry> query_log_;
  ResponseInterposer interposer_;
  // Decode/encode scratch reused across queries (single-threaded per host).
  // It checks out of the thread-local scratch pools, so its capacity also
  // survives this server's world.
  Pooled<DnsMessage> query_scratch_;
  Pooled<DnsMessage> response_scratch_;
  Pooled<Zone::LookupRefs> lookup_scratch_;
  Pooled<NameCompressor> compressor_;
  DnsName chase_scratch_;  // CNAME-chase cursor
};

}  // namespace lazyeye::dns
