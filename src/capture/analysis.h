// Capture analysis: the inference rules the paper applies to client packet
// captures (§4.3):
//   * CAD  = time between the first IPv6 TCP SYN and the first IPv4 TCP SYN
//   * established family = family of the handshake that completed
//   * connection attempt sequence = egress SYNs in order (Figure 5)
//   * DNS timings (per record type) for Resolution Delay inference
#pragma once

#include <optional>
#include <vector>

#include "capture/capture.h"
#include "dns/message.h"

namespace lazyeye::capture {

/// One connection attempt (unique client port + destination).
struct ConnectionAttempt {
  SimTime first_syn{0};
  SimTime last_syn{0};  // latest egress SYN (== first_syn without retransmits)
  simnet::Endpoint local;
  simnet::Endpoint remote;
  int syn_count = 0;
  bool established = false;  // a SYN-ACK for this attempt arrived
  bool refused = false;      // an RST for this attempt arrived

  simnet::Family family() const { return remote.addr.family(); }
};

/// A DNS query/response pair seen on the wire (client side).
struct DnsExchange {
  SimTime query_time{0};
  std::optional<SimTime> response_time;
  dns::RrType qtype = dns::RrType::kA;
  std::size_t answer_count = 0;
};

/// Timestamp of the first egress TCP SYN of `family`, if any.
std::optional<SimTime> first_syn_time(const PacketCapture& capture,
                                      simnet::Family family);

/// Paper CAD inference: t(first IPv4 SYN) - t(first IPv6 SYN).
/// nullopt when either family never attempted. Negative values indicate an
/// IPv4-first client.
std::optional<SimTime> infer_cad(const PacketCapture& capture);

/// Family of the first completed handshake (ingress SYN-ACK answered by this
/// host's ACK is approximated by: first ingress SYN-ACK).
std::optional<simnet::Family> established_family(const PacketCapture& capture);

/// Timestamp of the first ingress SYN-ACK — the client-side establishment
/// instant established_family() keys on. Used by the conformance rules to
/// bound "pre-establishment" attempt evidence.
std::optional<SimTime> first_established_time(const PacketCapture& capture);

/// Response time of the first answered DNS exchange of `qtype`, over a
/// precomputed exchange list (see dns_exchanges). Analysis passes that need
/// several DNS-derived metrics decode the capture once and reuse the list
/// instead of re-parsing every packet per metric.
std::optional<SimTime> first_response_time(
    const std::vector<DnsExchange>& exchanges, dns::RrType qtype);

/// All egress connection attempts in start order (deduplicated by 4-tuple,
/// counting SYN retransmissions).
std::vector<ConnectionAttempt> connection_attempts(
    const PacketCapture& capture);

/// Distinct destination addresses attempted, per family.
int distinct_destinations(const std::vector<ConnectionAttempt>& attempts,
                          simnet::Family family);

/// Client-side DNS exchanges (queries on port 53 matched to responses by
/// transaction id + qtype).
std::vector<DnsExchange> dns_exchanges(const PacketCapture& capture);

/// Time between receiving the A response and sending the first IPv6 SYN —
/// non-null only when the A answer arrived before any v6 SYN. Used to detect
/// the "waits for A before connecting via IPv6" deviation (§5.2).
std::optional<SimTime> a_response_to_v6_syn_gap(
    const PacketCapture& capture,
    const std::vector<DnsExchange>& exchanges);

/// Resolution Delay inference: gap between the A response arrival and the
/// first IPv4 SYN when the AAAA answer never arrived before it.
std::optional<SimTime> infer_resolution_delay(
    const PacketCapture& capture,
    const std::vector<DnsExchange>& exchanges);

}  // namespace lazyeye::capture
