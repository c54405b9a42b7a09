#include "capture/analysis.h"

#include <utility>

#include "dns/message_pool.h"

namespace lazyeye::capture {

using simnet::Family;
using simnet::Protocol;

std::optional<SimTime> first_syn_time(const PacketCapture& capture,
                                      Family family) {
  for (const auto& cp : capture.packets()) {
    if (cp.egress() && cp.packet.is_syn() && cp.packet.family() == family) {
      return cp.time;
    }
  }
  return std::nullopt;
}

std::optional<SimTime> infer_cad(const PacketCapture& capture) {
  const auto v6 = first_syn_time(capture, Family::kIpv6);
  const auto v4 = first_syn_time(capture, Family::kIpv4);
  if (!v6 || !v4) return std::nullopt;
  return *v4 - *v6;
}

std::optional<Family> established_family(const PacketCapture& capture) {
  for (const auto& cp : capture.packets()) {
    if (!cp.egress() && cp.packet.is_syn_ack()) {
      return cp.packet.family();
    }
  }
  return std::nullopt;
}

std::optional<SimTime> first_established_time(const PacketCapture& capture) {
  for (const auto& cp : capture.packets()) {
    if (!cp.egress() && cp.packet.is_syn_ack()) {
      return cp.time;
    }
  }
  return std::nullopt;
}

std::vector<ConnectionAttempt> connection_attempts(
    const PacketCapture& capture) {
  std::vector<ConnectionAttempt> attempts;
  auto find = [&](const simnet::Endpoint& local,
                  const simnet::Endpoint& remote) -> ConnectionAttempt* {
    for (auto& a : attempts) {
      if (a.local == local && a.remote == remote) return &a;
    }
    return nullptr;
  };

  for (const auto& cp : capture.packets()) {
    if (cp.packet.proto != Protocol::kTcp) continue;
    if (cp.egress() && cp.packet.is_syn()) {
      if (ConnectionAttempt* existing = find(cp.packet.src, cp.packet.dst)) {
        ++existing->syn_count;
        existing->last_syn = cp.time;
        continue;
      }
      ConnectionAttempt attempt;
      attempt.first_syn = cp.time;
      attempt.last_syn = cp.time;
      attempt.local = cp.packet.src;
      attempt.remote = cp.packet.dst;
      attempt.syn_count = 1;
      attempts.push_back(attempt);
      continue;
    }
    if (!cp.egress() && (cp.packet.is_syn_ack() || cp.packet.is_rst())) {
      // Ingress packets have mirrored endpoints.
      if (ConnectionAttempt* existing = find(cp.packet.dst, cp.packet.src)) {
        if (cp.packet.is_syn_ack()) existing->established = true;
        if (cp.packet.is_rst()) existing->refused = true;
      }
    }
  }
  return attempts;
}

int distinct_destinations(const std::vector<ConnectionAttempt>& attempts,
                          Family family) {
  std::vector<simnet::IpAddress> seen;
  for (const auto& a : attempts) {
    if (a.family() != family) continue;
    bool found = false;
    for (const auto& addr : seen) {
      if (addr == a.remote.addr) {
        found = true;
        break;
      }
    }
    if (!found) seen.push_back(a.remote.addr);
  }
  return static_cast<int>(seen.size());
}

std::vector<DnsExchange> dns_exchanges(const PacketCapture& capture) {
  std::vector<DnsExchange> exchanges;
  // Key: (transaction id, qtype as int) -> index into exchanges. A capture
  // holds a handful of exchanges, so a linear-scanned flat vector beats a
  // node-per-entry map.
  struct OpenQuery {
    std::pair<std::uint16_t, std::uint16_t> key;
    std::size_t index;
  };
  std::vector<OpenQuery> open;
  const auto find_open =
      [&](const std::pair<std::uint16_t, std::uint16_t>& k) -> OpenQuery* {
    for (OpenQuery& o : open) {
      if (o.key == k) return &o;
    }
    return nullptr;
  };
  // One pooled scratch message reused across packets (and across captures,
  // via the thread-local MessagePool): decode_into recycles the section
  // vectors, so parsing N packets costs far fewer than N decodes' worth of
  // allocations.
  dns::PooledMessage pooled;
  dns::DnsMessage& msg = *pooled;

  for (const auto& cp : capture.packets()) {
    if (cp.packet.proto != Protocol::kUdp) continue;
    const bool to_dns = cp.egress() && cp.packet.dst.port == 53;
    const bool from_dns = !cp.egress() && cp.packet.src.port == 53;
    if (!to_dns && !from_dns) continue;
    if (!dns::DnsMessage::decode_into(cp.packet.payload.span(), msg)) continue;
    if (msg.questions.empty()) continue;
    const auto key = std::make_pair(
        msg.header.id,
        static_cast<std::uint16_t>(msg.questions.front().type));

    if (to_dns && !msg.header.qr) {
      DnsExchange ex;
      ex.query_time = cp.time;
      ex.qtype = msg.questions.front().type;
      // Re-queries with the same (id, qtype) repoint the entry at the
      // latest exchange (the old map's operator[] overwrite semantics).
      if (OpenQuery* existing = find_open(key)) {
        existing->index = exchanges.size();
      } else {
        open.push_back(OpenQuery{key, exchanges.size()});
      }
      exchanges.push_back(std::move(ex));
    } else if (from_dns && msg.header.qr) {
      const OpenQuery* it = find_open(key);
      if (it == nullptr) continue;
      DnsExchange& ex = exchanges[it->index];
      if (!ex.response_time) {
        ex.response_time = cp.time;
        ex.answer_count = msg.answers.size();
      }
    }
  }
  return exchanges;
}

std::optional<SimTime> first_response_time(
    const std::vector<DnsExchange>& exchanges, dns::RrType qtype) {
  for (const auto& ex : exchanges) {
    if (ex.qtype == qtype && ex.response_time) return ex.response_time;
  }
  return std::nullopt;
}

std::optional<SimTime> a_response_to_v6_syn_gap(
    const PacketCapture& capture,
    const std::vector<DnsExchange>& exchanges) {
  const auto a_time = first_response_time(exchanges, dns::RrType::kA);
  const auto v6_syn = first_syn_time(capture, Family::kIpv6);
  if (!a_time || !v6_syn) return std::nullopt;
  if (*v6_syn < *a_time) return std::nullopt;  // v6 SYN did not wait for A
  return *v6_syn - *a_time;
}

std::optional<SimTime> infer_resolution_delay(
    const PacketCapture& capture,
    const std::vector<DnsExchange>& exchanges) {
  const auto a_time = first_response_time(exchanges, dns::RrType::kA);
  const auto aaaa_time = first_response_time(exchanges, dns::RrType::kAaaa);
  const auto v4_syn = first_syn_time(capture, Family::kIpv4);
  if (!a_time || !v4_syn) return std::nullopt;
  // Only meaningful when the v4 connection started before the AAAA answer
  // (i.e. the client gave up waiting for AAAA).
  if (aaaa_time && *aaaa_time <= *v4_syn) return std::nullopt;
  if (*v4_syn < *a_time) return std::nullopt;
  return *v4_syn - *a_time;
}

}  // namespace lazyeye::capture
