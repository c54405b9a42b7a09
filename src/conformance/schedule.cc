#include "conformance/schedule.h"

#include <utility>

#include "conformance/injector.h"
#include "dns/auth_server.h"
#include "dns/recursive_resolver.h"
#include "simnet/event_loop.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "util/strings.h"
#include "util/wire.h"

namespace lazyeye::conformance {

using transport::AcceptAction;

const char* trigger_kind_name(TriggerKind trigger) {
  static_assert(kTriggerKindCount == 4,
                "new trigger kind: extend the name table and the injector");
  switch (trigger) {
    case TriggerKind::kNone: return "none";
    case TriggerKind::kAfterFirstDnsQuery: return "after-first-dns-query";
    case TriggerKind::kAfterFirstDnsResponse: return "after-first-dns-response";
    case TriggerKind::kAfterFirstSyn: return "after-first-syn";
  }
  return "?";  // unreachable for in-range values
}

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
    TimedFault tf;
    // Any injecting kind (kNone excluded — a no-op entry wastes a slot).
    tf.plan.kind =
        static_cast<FaultKind>(1 + mix.next() % (kFaultKindCount - 1));
    tf.plan.seed = seed;
    tf.plan.stream = stream;
    // 16 slots per schedule keeps entry mutation streams collision-free
    // across a campaign's schedules (search.cc mutations stay below 16
    // entries by construction).
    tf.plan.index = index * 16 + static_cast<std::uint32_t>(i);
    tf.plan.target_family = (mix.next() & 1) != 0 ? simnet::Family::kIpv6
                                                  : simnet::Family::kIpv4;
    tf.plan.spike = lazyeye::ms(50 + static_cast<std::int64_t>(mix.next() % 351));
    tf.trigger = static_cast<TriggerKind>(mix.next() % kTriggerKindCount);
    tf.start = sample_window_start(mix);
    tf.duration = sample_window_duration(mix);
    s.entries.push_back(tf);
  }
  return s;
}

// ---- Codec ----------------------------------------------------------------

namespace {

/// Sanity cap: no legitimate schedule (generator: <=3 entries, search
/// mutations: <16) comes anywhere near it; a decoded count above it means
/// corrupt bytes, not a big schedule.
constexpr std::uint32_t kMaxScheduleEntries = 64;

}  // namespace

void encode_schedule(const FaultSchedule& schedule, std::string& out) {
  wire::put_u64(out, schedule.seed);
  wire::put_u32(out, schedule.stream);
  wire::put_u32(out, schedule.index);
  wire::put_u32(out, static_cast<std::uint32_t>(schedule.entries.size()));
  for (const TimedFault& entry : schedule.entries) {
    wire::put_u8(out, static_cast<std::uint8_t>(entry.plan.kind));
    wire::put_u64(out, entry.plan.seed);
    wire::put_u32(out, entry.plan.stream);
    wire::put_u32(out, entry.plan.index);
    wire::put_u8(out, static_cast<std::uint8_t>(entry.plan.target_family));
    wire::put_u64(out, static_cast<std::uint64_t>(entry.plan.spike.count()));
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
  if (!in.ok || count > kMaxScheduleEntries) return std::nullopt;
  s.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TimedFault entry;
    const std::uint8_t kind = in.u8();
    if (kind >= kFaultKindCount) return std::nullopt;
    entry.plan.kind = static_cast<FaultKind>(kind);
    entry.plan.seed = in.u64();
    entry.plan.stream = in.u32();
    entry.plan.index = in.u32();
    const std::uint8_t family = in.u8();
    if (family > static_cast<std::uint8_t>(simnet::Family::kIpv6)) {
      return std::nullopt;
    }
    entry.plan.target_family = static_cast<simnet::Family>(family);
    entry.plan.spike = SimTime{static_cast<std::int64_t>(in.u64())};
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

ScheduleInjector::ScheduleInjector(FaultSchedule schedule,
                                   const simnet::EventLoop& loop)
    : schedule_{std::move(schedule)}, loop_{&loop} {
  rngs_.reserve(schedule_.entries.size());
  for (const TimedFault& entry : schedule_.entries) {
    rngs_.emplace_back(entry.plan.rng_seed());
  }
}

bool ScheduleInjector::needs_dns_hook() const {
  for (const TimedFault& entry : schedule_.entries) {
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
  for (const TimedFault& entry : schedule_.entries) {
    if (tcp_fault_kind(entry.plan.kind)) return true;
    if (entry.trigger == TriggerKind::kAfterFirstSyn) return true;
  }
  return false;
}

bool ScheduleInjector::needs_quic_hook() const {
  for (const TimedFault& entry : schedule_.entries) {
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

void ScheduleInjector::attach(dns::RecursiveResolver& resolver) {
  if (!needs_dns_hook()) return;
  resolver.set_response_interposer(
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
  const TimedFault& entry = schedule_.entries[i];
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
  for (std::size_t i = 0; i < schedule_.entries.size(); ++i) {
    const TimedFault& entry = schedule_.entries[i];
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
  // wire.
  const SimTime now = loop_->now();
  if (!first_dns_query_) first_dns_query_ = now;
  if (!first_dns_response_) first_dns_response_ = now + delay;
}

AcceptAction ScheduleInjector::on_accept(bool quic,
                                         const simnet::Endpoint& peer) {
  AcceptAction action = AcceptAction::kAccept;
  for (std::size_t i = 0; i < schedule_.entries.size(); ++i) {
    const TimedFault& entry = schedule_.entries[i];
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
  if (!quic && !first_syn_) first_syn_ = loop_->now();
  return action;
}

}  // namespace lazyeye::conformance
