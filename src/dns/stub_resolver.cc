#include "dns/stub_resolver.h"

#include <stdexcept>

namespace lazyeye::dns {

StubResolver::StubResolver(simnet::Host& host, StubOptions options)
    : host_{host},
      options_{std::move(options)},
      client_{host},
      requests_{host.network().memory()} {
  if (options_.servers.empty()) {
    throw std::invalid_argument("StubResolver needs at least one server");
  }
}

namespace {

// (handle, type) packed into one word so the DnsClient callback capture is
// exactly (this, tag) = 16 bytes and stays in std::function's inline buffer.
constexpr std::uint64_t make_tag(std::uint64_t handle, RrType type) {
  return (handle << 16) | static_cast<std::uint16_t>(type);
}

}  // namespace

void StubResolver::start_query(std::uint64_t handle, RrType type) {
  const auto req_it = requests_.find(handle);
  if (req_it == requests_.end()) return;
  PendingQuery& pending = req_it->second.queries[type];

  if (pending.server_index >= options_.servers.size()) {
    QueryOutcome outcome;
    outcome.error = "all servers failed";
    deliver(handle, type, outcome);
    return;
  }

  const simnet::Endpoint server = options_.servers[pending.server_index];
  DnsClientOptions copts;
  copts.timeout = options_.timeout;
  copts.attempts = options_.attempts_per_server;

  const std::uint64_t tag = make_tag(handle, type);
  const std::uint64_t client_handle = client_.query(
      server, req_it->second.name, type, copts,
      [this, tag](const QueryOutcome& outcome) {
        on_query_outcome(tag, outcome);
      },
      /*recursion_desired=*/true);

  // The query may have completed synchronously (and erased state): re-lookup
  // before recording the client handle.
  if (auto it = requests_.find(handle); it != requests_.end()) {
    if (auto qit = it->second.queries.find(type);
        qit != it->second.queries.end()) {
      qit->second.client_handle = client_handle;
    }
  }
}

void StubResolver::on_query_outcome(std::uint64_t tag,
                                    const QueryOutcome& outcome) {
  const std::uint64_t handle = tag >> 16;
  const auto type = static_cast<RrType>(tag & 0xFFFF);
  const auto it = requests_.find(handle);
  if (it == requests_.end()) return;
  if (outcome.ok || outcome.rcode == Rcode::kNxDomain) {
    // NXDOMAIN is a definitive (negative) answer, not a server failure.
    deliver(handle, type, outcome);
    return;
  }
  // Failover to the next server.
  it->second.queries[type].server_index++;
  start_query(handle, type);
}

void StubResolver::deliver(std::uint64_t handle, RrType type,
                           const QueryOutcome& outcome) {
  const auto it = requests_.find(handle);
  if (it == requests_.end()) return;
  Request& req = it->second;
  req.queries.erase(type);
  const bool finished = req.queries.empty();
  if (outcome.ok || outcome.rcode == Rcode::kNxDomain) {
    if (req.dual.on_records) {
      // Local copy so a handler that cancels/finishes the request cannot
      // destroy the function object mid-invocation (engine handlers are
      // small, so the copy stays in the inline buffer).
      auto on_records = req.dual.on_records;
      outcome.response.addresses_for_into(req.name, type, *addr_scratch_);
      on_records(type, *addr_scratch_, outcome.rtt);
    }
  } else {
    if (req.dual.on_error) {
      auto on_error = req.dual.on_error;
      on_error(type, outcome.error);
    }
  }
  if (finished) requests_.erase(handle);
}

std::uint64_t StubResolver::resolve_dual(const DnsName& name,
                                         DualHandlers handlers) {
  const std::uint64_t handle = next_handle_++;
  Request& req = requests_[handle];
  req.name = name;
  req.dual = std::move(handlers);

  // RFC 8305: AAAA first, A immediately after (same instant, ordered sends).
  start_query(handle, RrType::kAaaa);
  start_query(handle, RrType::kA);
  return handle;
}

void StubResolver::cancel(std::uint64_t handle) {
  const auto it = requests_.find(handle);
  if (it == requests_.end()) return;
  for (auto& [type, pending] : it->second.queries) {
    client_.cancel(pending.client_handle);
  }
  requests_.erase(it);
}

}  // namespace lazyeye::dns
