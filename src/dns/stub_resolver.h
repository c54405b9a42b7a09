// Stub resolver used by HE clients.
//
// HEv2 (RFC 8305 §3) behaviour: issue the AAAA query first, immediately
// followed by the A query, and surface each response to the caller the
// moment it arrives (the Happy Eyeballs engine reacts per-record-type).
// Server failover and per-query timeout/retry mirror common OS stub
// behaviour; the timeout is the knob the paper shows browsers delegate to
// (§5.2: browsers without their own Resolution Delay wait for the resolver's
// timeout).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory_resource>
#include <vector>

#include "dns/client.h"
#include "dns/message_pool.h"

namespace lazyeye::dns {

struct StubOptions {
  /// Resolver endpoints, tried in order when a query fails; the transport
  /// family follows each server's address (A lookups may ride IPv6 — a fact
  /// the paper's delayed-A experiment leans on).
  std::vector<simnet::Endpoint> servers;
  SimTime timeout = lazyeye::sec(5);
  int attempts_per_server = 2;
};

class StubResolver {
 public:
  StubResolver(simnet::Host& host, StubOptions options);

  struct DualHandlers {
    /// Called once per record type as soon as its response arrives.
    /// `addresses` may be empty (NODATA / NXDOMAIN).
    std::function<void(RrType, const std::vector<simnet::IpAddress>&,
                       SimTime rtt)>
        on_records;
    /// Called on timeout / server failure for that record type.
    std::function<void(RrType, const std::string& error)> on_error;
  };

  /// AAAA + A resolution for Happy Eyeballs, AAAA sent first, with server
  /// failover per record type. Returns a request handle.
  std::uint64_t resolve_dual(const DnsName& name, DualHandlers handlers);

  void cancel(std::uint64_t handle);

  const StubOptions& options() const { return options_; }

 private:
  struct PendingQuery {
    std::size_t server_index = 0;
    std::uint64_t client_handle = 0;
  };
  // Per-request state lives here (qname, completion handlers) rather than in
  // each callback's captures: the DnsClient callbacks then close over a
  // single (this, tag) pair, which fits std::function's inline buffer — the
  // old per-query closure chain heap-allocated several functions and name
  // copies per lookup. Allocator-aware so the outer pmr::map's arena
  // resource propagates to the per-request query map.
  struct Request {
    using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
    Request() = default;
    explicit Request(allocator_type alloc) : queries{alloc.resource()} {}
    Request(Request&& other, allocator_type alloc)
        : name{std::move(other.name)},
          dual{std::move(other.dual)},
          queries{std::move(other.queries), alloc.resource()} {}

    DnsName name;
    DualHandlers dual;
    std::pmr::map<RrType, PendingQuery> queries;
  };

  void start_query(std::uint64_t handle, RrType type);
  void on_query_outcome(std::uint64_t tag, const QueryOutcome& outcome);
  void deliver(std::uint64_t handle, RrType type, const QueryOutcome& outcome);

  simnet::Host& host_;
  StubOptions options_;
  DnsClient client_;
  // Reused by deliver(): keeps its capacity across responses and, checked
  // out of the thread-local scratch pool, across worlds.
  Pooled<std::vector<simnet::IpAddress>> addr_scratch_;
  // Request/query nodes from the world's arena (see DnsClient).
  std::pmr::map<std::uint64_t, Request> requests_;
  std::uint64_t next_handle_ = 1;
};

}  // namespace lazyeye::dns
