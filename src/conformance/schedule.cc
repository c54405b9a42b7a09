#include "conformance/schedule.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dns/auth_server.h"
#include "simnet/event_loop.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "util/strings.h"
#include "util/wire.h"

namespace lazyeye::conformance {

using transport::AcceptAction;

std::uint64_t FaultSchedule::rng_seed() const {
  // Triple fold like FaultPlan::rng_seed (distinct tag so a schedule and a
  // plan sharing a triple never collide), then the entry content folded in:
  // a mutant that retimes one window runs a different world than its parent
  // while staying a pure function of its own value.
  SplitMix64 mix{seed ^ ((std::uint64_t{stream} + 1) * 0x9e3779b97f4a7c15ULL) ^
                 ((std::uint64_t{index} + 1) * 0xd6e8feb86659fd93ULL) ^
                 0x5343484544554c45ULL};  // "SCHEDULE"
  std::uint64_t acc = mix.next();
  for (const TimedFault& entry : entries) {
    SplitMix64 fold{acc ^ entry.plan.rng_seed() ^
                    (static_cast<std::uint64_t>(entry.start.count()) *
                     0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(entry.duration.count()) + 1) ^
                    (static_cast<std::uint64_t>(entry.trigger) << 48)};
    acc = fold.next();
  }
  return acc;
}

std::string FaultSchedule::repro() const {
  return lazyeye::str_format(
      "schedule seed=%llu stream=%u index=%u entries=%zu",
      static_cast<unsigned long long>(seed), static_cast<unsigned>(stream),
      static_cast<unsigned>(index), entries.size());
}

SimTime sample_window_start(SplitMix64& rng) {
  const std::uint64_t r = rng.next() % 8;
  if (r < 4) return SimTime{0};
  if (r < 6) return lazyeye::ms(static_cast<std::int64_t>(rng.next() % 50));
  return lazyeye::ms(static_cast<std::int64_t>(rng.next() % 301));
}

SimTime sample_window_duration(SplitMix64& rng) {
  return (rng.next() % 4 == 0)
             ? SimTime{0}  // open window
             : lazyeye::ms(25 + static_cast<std::int64_t>(rng.next() % 476));
}

TimedFault seeded_entry(SplitMix64& rng, std::uint64_t seed,
                        std::uint32_t stream, std::uint32_t plan_index) {
  TimedFault tf;
  // Any injecting kind (kNone excluded — a no-op entry wastes a slot).
  tf.plan.kind =
      static_cast<FaultKind>(1 + rng.next() % (kFaultKindCount - 1));
  tf.plan.seed = seed;
  tf.plan.stream = stream;
  tf.plan.index = plan_index;
  tf.plan.target_family = (rng.next() & 1) != 0 ? simnet::Family::kIpv6
                                                : simnet::Family::kIpv4;
  tf.plan.spike =
      lazyeye::ms(50 + static_cast<std::int64_t>(rng.next() % 351));
  tf.trigger = static_cast<TriggerKind>(rng.next() % kTriggerKindCount);
  tf.start = sample_window_start(rng);
  tf.duration = sample_window_duration(rng);
  return tf;
}

FaultSchedule FaultSchedule::generate(std::uint64_t seed, std::uint32_t stream,
                                      std::uint32_t index) {
  FaultSchedule s;
  s.seed = seed;
  s.stream = stream;
  s.index = index;
  // Distinct fold tag from rng_seed(): the generator stream is independent
  // of the world seed the generated schedule will run under.
  SplitMix64 mix{seed ^ ((std::uint64_t{stream} + 1) * 0xd6e8feb86659fd93ULL) ^
                 ((std::uint64_t{index} + 1) * 0x9e3779b97f4a7c15ULL) ^
                 0x67656e5343484544ULL};  // "genSCHED"
  const int count = 1 + static_cast<int>(mix.next() % 3);
  s.entries.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    // 16 slots per schedule keeps entry mutation streams collision-free
    // across a campaign's schedules (search.cc mutations stay below 16
    // entries by construction).
    s.entries.push_back(seeded_entry(
        mix, seed, stream, index * 16 + static_cast<std::uint32_t>(i)));
  }
  return s;
}

// ---- Codec ----------------------------------------------------------------

namespace {

/// Sanity cap: no legitimate schedule (generator: <=3 entries, search
/// mutations: <16) comes anywhere near it; a decoded count above it means
/// corrupt bytes, not a big schedule.
constexpr std::uint32_t kMaxScheduleEntries = 64;

/// One encoded entry: kind, plan seed/stream/index, family, spike, window
/// start and duration, trigger.
constexpr std::size_t kEntryBytes = 1 + 8 + 4 + 4 + 1 + 8 + 8 + 8 + 1;

}  // namespace

void encode_plan(const FaultPlan& plan, std::string& out) {
  wire::put_u8(out, static_cast<std::uint8_t>(plan.kind));
  wire::put_u64(out, plan.seed);
  wire::put_u32(out, plan.stream);
  wire::put_u32(out, plan.index);
  wire::put_u8(out, static_cast<std::uint8_t>(plan.target_family));
  wire::put_u64(out, static_cast<std::uint64_t>(plan.spike.count()));
}

bool decode_plan(wire::Reader& in, FaultPlan& plan) {
  const std::uint8_t kind = in.u8();
  if (kind >= kFaultKindCount) return false;
  plan.kind = static_cast<FaultKind>(kind);
  plan.seed = in.u64();
  plan.stream = in.u32();
  plan.index = in.u32();
  const std::uint8_t family = in.u8();
  if (family > static_cast<std::uint8_t>(simnet::Family::kIpv6)) return false;
  plan.target_family = static_cast<simnet::Family>(family);
  plan.spike = SimTime{static_cast<std::int64_t>(in.u64())};
  return true;
}

void encode_schedule(const FaultSchedule& schedule, std::string& out) {
  wire::put_u64(out, schedule.seed);
  wire::put_u32(out, schedule.stream);
  wire::put_u32(out, schedule.index);
  wire::put_u32(out, static_cast<std::uint32_t>(schedule.entries.size()));
  for (const TimedFault& entry : schedule.entries) {
    encode_plan(entry.plan, out);
    wire::put_u64(out, static_cast<std::uint64_t>(entry.start.count()));
    wire::put_u64(out, static_cast<std::uint64_t>(entry.duration.count()));
    wire::put_u8(out, static_cast<std::uint8_t>(entry.trigger));
  }
}

std::optional<FaultSchedule> decode_schedule(std::string_view bytes) {
  wire::Reader in{bytes};
  FaultSchedule s;
  s.seed = in.u64();
  s.stream = in.u32();
  s.index = in.u32();
  const std::uint32_t count = in.u32();
  // Entries have a fixed size, so the bytes left bound the count before
  // anything is reserved.
  if (!in.ok || count > kMaxScheduleEntries ||
      count > in.remaining() / kEntryBytes) {
    return std::nullopt;
  }
  s.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TimedFault entry;
    if (!decode_plan(in, entry.plan)) return std::nullopt;
    entry.start = SimTime{static_cast<std::int64_t>(in.u64())};
    entry.duration = SimTime{static_cast<std::int64_t>(in.u64())};
    const std::uint8_t trigger = in.u8();
    if (trigger >= kTriggerKindCount) return std::nullopt;
    entry.trigger = static_cast<TriggerKind>(trigger);
    if (entry.start < SimTime{0}) return std::nullopt;
    s.entries.push_back(entry);
  }
  if (!in.exhausted()) return std::nullopt;
  return s;
}

std::string schedule_to_hex(const FaultSchedule& schedule) {
  static const char kDigits[] = "0123456789abcdef";
  const std::string raw = encode_schedule(schedule);
  std::string hex;
  hex.reserve(raw.size() * 2);
  for (const char c : raw) {
    const auto b = static_cast<unsigned char>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

std::optional<FaultSchedule> schedule_from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string raw;
  raw.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    raw.push_back(static_cast<char>((hi << 4) | lo));
  }
  return decode_schedule(raw);
}

// ---- ScheduleInjector -----------------------------------------------------

namespace {

using dns::DnsMessage;
using dns::RrType;
using simnet::Family;

/// Family a query type resolves addresses for (non-address types count as
/// IPv4 only so the family-selective kinds leave them alone by default).
Family qtype_family(RrType qtype) {
  return qtype == RrType::kAaaa ? Family::kIpv6 : Family::kIpv4;
}

bool address_qtype(RrType qtype) {
  return qtype == RrType::kA || qtype == RrType::kAaaa;
}

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

/// Applies `plan`'s DNS-side fault to one outgoing response (message edits,
/// delay stretch, wire mutation, extra spoof datagrams). The mutate_wire
/// closure it may install captures `rng` (the entry's mutation stream) by
/// reference. Overwrites out.mutate_wire when it installs one.
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

/// What `plan` does to an inbound handshake from `peer`: kReset/kDrop/
/// kAcceptThenReset for the transport kinds when the peer matches the
/// target family, kAccept otherwise.
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

/// Active for the whole run: no trigger, no start offset, open window.
bool always_on(const TimedFault& entry) {
  return entry.trigger == TriggerKind::kNone && entry.start <= SimTime{0} &&
         entry.duration <= SimTime{0};
}

}  // namespace

ScheduleInjector::ScheduleInjector(std::span<const TimedFault> entries,
                                   const simnet::EventLoop* clock,
                                   std::pmr::memory_resource* memory)
    : entries_{entries}, loop_{nullptr}, rngs_{memory} {
  rngs_.reserve(entries_.size());
  for (const TimedFault& entry : entries_) {
    rngs_.emplace_back(entry.plan.rng_seed());
    if (always_on(entry)) continue;
    if (clock == nullptr) {
      throw std::invalid_argument(
          "ScheduleInjector: a windowed or triggered entry needs a clock");
    }
    loop_ = clock;
  }
}

bool ScheduleInjector::needs_dns_hook() const {
  for (const TimedFault& entry : entries_) {
    if (dns_fault_kind(entry.plan.kind)) return true;
    // DNS-side triggers are observed from the same hook even when every
    // fault in the schedule lives elsewhere.
    if (entry.trigger == TriggerKind::kAfterFirstDnsQuery ||
        entry.trigger == TriggerKind::kAfterFirstDnsResponse) {
      return true;
    }
  }
  return false;
}

bool ScheduleInjector::needs_tcp_hook() const {
  for (const TimedFault& entry : entries_) {
    if (tcp_fault_kind(entry.plan.kind)) return true;
    if (entry.trigger == TriggerKind::kAfterFirstSyn) return true;
  }
  return false;
}

bool ScheduleInjector::needs_quic_hook() const {
  for (const TimedFault& entry : entries_) {
    if (entry.plan.kind == FaultKind::kQuicDrop) return true;
  }
  return false;
}

void ScheduleInjector::attach(dns::AuthServer& server) {
  if (!needs_dns_hook()) return;
  server.set_response_interposer(
      [this](const dns::DnsMessage& query, dns::DnsMessage& response,
             SimTime& delay, dns::ResponseDirectives& out) {
        on_dns_response(query, response, delay, out);
      });
}

void ScheduleInjector::attach(transport::TcpStack& tcp) {
  if (!needs_tcp_hook()) return;
  tcp.set_accept_interposer(
      [this](const simnet::Endpoint& peer, std::uint16_t) {
        return on_accept(/*quic=*/false, peer);
      });
}

void ScheduleInjector::attach(transport::QuicStack& quic) {
  if (!needs_quic_hook()) return;
  quic.set_accept_interposer(
      [this](const simnet::Endpoint& peer, std::uint16_t) {
        return on_accept(/*quic=*/true, peer);
      });
}

bool ScheduleInjector::entry_active(std::size_t i) const {
  const TimedFault& entry = entries_[i];
  if (always_on(entry)) return true;
  std::optional<SimTime> anchor;
  switch (entry.trigger) {
    case TriggerKind::kNone: anchor = SimTime{0}; break;
    case TriggerKind::kAfterFirstDnsQuery: anchor = first_dns_query_; break;
    case TriggerKind::kAfterFirstDnsResponse:
      anchor = first_dns_response_;
      break;
    case TriggerKind::kAfterFirstSyn: anchor = first_syn_; break;
  }
  if (!anchor) return false;  // trigger never fired (yet)
  const SimTime now = loop_->now();
  if (now < *anchor + entry.start) return false;
  if (entry.duration > SimTime{0} &&
      now >= *anchor + entry.start + entry.duration) {
    return false;
  }
  return true;
}

void ScheduleInjector::on_dns_response(const dns::DnsMessage& query,
                                       dns::DnsMessage& response,
                                       SimTime& delay,
                                       dns::ResponseDirectives& out) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const TimedFault& entry = entries_[i];
    if (!dns_fault_kind(entry.plan.kind) || !entry_active(i)) continue;
    // apply_dns_fault overwrites out.mutate_wire; chain so every active
    // wire-mutating entry runs, in schedule order.
    auto prev = std::move(out.mutate_wire);
    out.mutate_wire = nullptr;
    apply_dns_fault(entry.plan, rngs_[i], query, response, delay, out);
    if (prev) {
      if (out.mutate_wire) {
        out.mutate_wire = [first = std::move(prev),
                           second = std::move(out.mutate_wire)](
                              std::vector<std::uint8_t>& bytes) {
          first(bytes);
          second(bytes);
        };
      } else {
        out.mutate_wire = std::move(prev);
      }
    }
  }
  // Anchors update after evaluation: the first query/response is served
  // under pre-trigger windows, and "after-first-X" entries only shape what
  // follows it. The response anchor is the emission instant (post any delay
  // the active entries just added), i.e. when the answer actually hits the
  // wire. Without a windowed or triggered entry nothing reads them.
  if (loop_ == nullptr) return;
  const SimTime now = loop_->now();
  if (!first_dns_query_) first_dns_query_ = now;
  if (!first_dns_response_) first_dns_response_ = now + delay;
}

AcceptAction ScheduleInjector::on_accept(bool quic,
                                         const simnet::Endpoint& peer) {
  AcceptAction action = AcceptAction::kAccept;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const TimedFault& entry = entries_[i];
    const bool layer_match = quic ? entry.plan.kind == FaultKind::kQuicDrop
                                  : tcp_fault_kind(entry.plan.kind);
    if (!layer_match || !entry_active(i)) continue;
    const AcceptAction candidate = fault_accept_action(entry.plan, peer);
    if (candidate != AcceptAction::kAccept) {
      action = candidate;  // first non-accept entry wins
      break;
    }
  }
  // The triggering SYN itself is evaluated above with the anchor unset.
  if (!quic && !first_syn_ && loop_ != nullptr) first_syn_ = loop_->now();
  return action;
}

}  // namespace lazyeye::conformance
