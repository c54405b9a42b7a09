#include "conformance/injector.h"

#include <algorithm>
#include <utility>

namespace lazyeye::conformance {

using dns::DnsMessage;
using dns::RrType;
using simnet::Family;
using transport::AcceptAction;

namespace {

/// Family a query type resolves addresses for (non-address types count as
/// IPv4 only so the family-selective kinds leave them alone by default).
Family qtype_family(RrType qtype) {
  return qtype == RrType::kAaaa ? Family::kIpv6 : Family::kIpv4;
}

bool address_qtype(RrType qtype) {
  return qtype == RrType::kA || qtype == RrType::kAaaa;
}

}  // namespace

bool dns_fault_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDnsTruncate:
    case FaultKind::kDnsCorrupt:
    case FaultKind::kDnsSpoof:
    case FaultKind::kDnsReorder:
    case FaultKind::kDnsStarveFamily:
    case FaultKind::kDnsDelaySpike:
      return true;
    default:
      return false;
  }
}

bool tcp_fault_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTcpReset:
    case FaultKind::kTcpAcceptReset:
    case FaultKind::kTcpBlackhole:
      return true;
    default:
      return false;
  }
}

void apply_dns_fault(const FaultPlan& plan, SplitMix64& rng,
                     const DnsMessage& query, DnsMessage& response,
                     SimTime& delay, dns::ResponseDirectives& out) {
  const RrType qtype =
      query.questions.empty() ? RrType::kA : query.questions.front().type;
  const bool targeted =
      address_qtype(qtype) && qtype_family(qtype) == plan.target_family;
  switch (plan.kind) {
    case FaultKind::kDnsTruncate:
      out.mutate_wire = [&rng](std::vector<std::uint8_t>& wire) {
        truncate_wire(wire, rng);
      };
      break;
    case FaultKind::kDnsCorrupt:
      out.mutate_wire = [&rng](std::vector<std::uint8_t>& wire) {
        corrupt_wire(wire, rng);
      };
      break;
    case FaultKind::kDnsSpoof: {
      if (!address_qtype(qtype)) break;
      // Off-path race: wrong transaction id, bogus address, sent with zero
      // extra delay so it reaches the client ahead of the real answer. A
      // compliant resolver/client drops it on the id mismatch.
      DnsMessage spoof = response;
      spoof.header.id ^= static_cast<std::uint16_t>(1 + rng.next() % 0xffff);
      spoof.answers.clear();
      spoof.authorities.clear();
      spoof.additionals.clear();
      const dns::DnsName& qname = query.questions.front().name;
      if (qtype == RrType::kA) {
        spoof.answers.push_back(dns::ResourceRecord::a(
            qname, simnet::IpAddress::must_parse("192.0.2.66").v4()));
      } else {
        spoof.answers.push_back(dns::ResourceRecord::aaaa(
            qname, simnet::IpAddress::must_parse("2001:db8:bad::66").v6()));
      }
      out.extra.push_back({spoof.encode(), SimTime{0}});
      break;
    }
    case FaultKind::kDnsReorder:
      // Hold the targeted family's answer back past the spike so the other
      // family's answer overtakes it, and scramble in-message record order.
      if (targeted) {
        delay = delay + plan.spike;
        std::reverse(response.answers.begin(), response.answers.end());
      }
      break;
    case FaultKind::kDnsStarveFamily:
      if (targeted) response.answers.clear();  // NODATA-like starvation
      break;
    case FaultKind::kDnsDelaySpike:
      if (targeted) delay = delay + plan.spike;
      break;
    default:
      break;
  }
}

AcceptAction fault_accept_action(const FaultPlan& plan,
                                 const simnet::Endpoint& peer) {
  if (peer.addr.family() != plan.target_family) return AcceptAction::kAccept;
  switch (plan.kind) {
    case FaultKind::kTcpReset: return AcceptAction::kReset;
    case FaultKind::kTcpAcceptReset: return AcceptAction::kAcceptThenReset;
    case FaultKind::kTcpBlackhole:
    case FaultKind::kQuicDrop: return AcceptAction::kDrop;
    default: return AcceptAction::kAccept;
  }
}

dns::ResponseInterposer FaultInjector::dns_hook() {
  return [this](const DnsMessage& query, DnsMessage& response, SimTime& delay,
                dns::ResponseDirectives& out) {
    apply_dns_fault(plan_, rng_, query, response, delay, out);
  };
}

void FaultInjector::attach(dns::AuthServer& server) {
  if (dns_fault_kind(plan_.kind)) server.set_response_interposer(dns_hook());
}

void FaultInjector::attach(transport::TcpStack& tcp) {
  if (!tcp_fault_kind(plan_.kind)) return;
  tcp.set_accept_interposer(
      [this](const simnet::Endpoint& peer, std::uint16_t) {
        return fault_accept_action(plan_, peer);
      });
}

void FaultInjector::attach(transport::QuicStack& quic) {
  if (plan_.kind != FaultKind::kQuicDrop) return;
  quic.set_accept_interposer(
      [this](const simnet::Endpoint& peer, std::uint16_t) {
        return fault_accept_action(plan_, peer);
      });
}

}  // namespace lazyeye::conformance
