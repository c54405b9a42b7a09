// FaultInjector: maps a seeded FaultPlan onto the interposing hooks the
// dns/ and transport/ layers expose (ResponseInterposer, AcceptInterposer).
//
// The injector owns the plan's mutation RNG; attached hooks capture `this`,
// so the injector must outlive the stacks it attaches to (in practice: it
// lives next to the Testbed/world for the cell's whole run). Hooks are only
// installed for the layers the plan's kind actually touches — every other
// layer keeps its null hook and stays on the zero-cost fast path.
//
// The per-kind fault semantics live in free functions (apply_dns_fault,
// fault_accept_action) so the compound-schedule injector (schedule.h) can
// multiplex several plans through one hook without duplicating them.
#pragma once

#include "conformance/fault.h"
#include "dns/auth_server.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "util/rng.h"

namespace lazyeye::conformance {

/// Kind classification: which layer's hook a plan needs.
bool dns_fault_kind(FaultKind kind);
bool tcp_fault_kind(FaultKind kind);

/// Applies `plan`'s DNS-side fault to one outgoing response (message edits,
/// delay stretch, wire mutation, extra spoof datagrams). `rng` is the plan's
/// mutation stream; the mutate_wire closure it may install captures `rng` by
/// reference, so the generator must outlive the directives' execution.
/// No-op for non-DNS kinds. Overwrites out.mutate_wire when it installs one
/// — multiplexing callers chain the previous closure themselves.
void apply_dns_fault(const FaultPlan& plan, SplitMix64& rng,
                     const dns::DnsMessage& query, dns::DnsMessage& response,
                     SimTime& delay, dns::ResponseDirectives& out);

/// What `plan` does to an inbound handshake from `peer`: kReset/kDrop/
/// kAcceptThenReset for the transport kinds when the peer matches the
/// target family, kAccept otherwise (including all non-transport kinds).
transport::AcceptAction fault_accept_action(const FaultPlan& plan,
                                            const simnet::Endpoint& peer);

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(plan), rng_(plan.rng_seed()) {}

  const FaultPlan& plan() const { return plan_; }

  /// Install hooks on the layers this plan's kind targets. No-ops (leaving
  /// the stack's hook unset) when the kind lives elsewhere.
  void attach(dns::AuthServer& server);
  void attach(transport::TcpStack& tcp);
  void attach(transport::QuicStack& quic);

 private:
  dns::ResponseInterposer dns_hook();

  FaultPlan plan_;
  SplitMix64 rng_;
};

}  // namespace lazyeye::conformance
