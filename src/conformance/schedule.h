// Compound fault schedules: several seeded faults with activation windows
// and event triggers, multiplexed through the stacks' interposing hooks
// (ROADMAP "compound fault plans (multiple concurrent seeded faults),
// coverage-guided fault search").
//
// A FaultSchedule is an ordered list of TimedFault entries. Each entry is a
// plain FaultPlan plus a window: the fault acts only while sim time sits in
// [anchor + start, anchor + start + duration), where the anchor is t=0 for
// untriggered entries or the instant the entry's trigger event was first
// observed (the triggering event itself is never affected — the anchor is
// set after the event is evaluated). duration <= 0 leaves the window open.
//
// Two replay paths, both exact:
//   * generated schedules are a pure function of a (seed, stream, index)
//     triple (FaultSchedule::generate), so the campaign's one-line replay
//     contract survives:
//       ./build/example_conformance_probe "<client>" --schedule S T I
//   * arbitrary schedules (mutated/minimized by the fault hunt, search.h)
//     round-trip through encode_schedule()/decode_schedule() and replay via
//       ./build/example_conformance_probe "<client>" --schedule-hex <hex>
//
// ScheduleInjector, the only code that installs fault hooks, multiplexes the
// entries through one ResponseInterposer / AcceptInterposer per layer; a
// single-fault cell runs its plan as a one-entry schedule. Hooks are
// installed only on layers some entry targets (or must be watched for a
// trigger); untouched layers keep their null hook and the zero-cost fast
// path.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "conformance/fault.h"
#include "transport/connection.h"
#include "util/rng.h"
#include "util/time.h"

namespace lazyeye::dns {
class AuthServer;
struct DnsMessage;
struct ResponseDirectives;
}  // namespace lazyeye::dns

namespace lazyeye::transport {
class TcpStack;
class QuicStack;
}  // namespace lazyeye::transport

namespace lazyeye::simnet {
class EventLoop;
}  // namespace lazyeye::simnet

namespace lazyeye::wire {
struct Reader;
}  // namespace lazyeye::wire

namespace lazyeye::conformance {

/// Event that anchors a triggered entry's activation window.
enum class TriggerKind : std::uint8_t {
  kNone = 0,              // anchor at t=0
  kAfterFirstDnsQuery,    // first DNS query reaching the faulted server
  kAfterFirstDnsResponse, // first DNS response leaving it (post-delay)
  kAfterFirstSyn,         // first TCP handshake reaching the server
};

inline constexpr int kTriggerKindCount = 4;

/// One schedule entry: a fault plan active only inside its window.
struct TimedFault {
  FaultPlan plan;
  SimTime start{0};     // window open, relative to the anchor
  SimTime duration{0};  // window length; <= 0 keeps it open for the run
  TriggerKind trigger = TriggerKind::kNone;

  bool operator==(const TimedFault&) const = default;
};

struct FaultSchedule {
  /// Provenance triple. For generated schedules it fully determines the
  /// entries; mutated/minimized schedules keep the triple of the candidate
  /// they descended from (their entries replay via the codec instead).
  std::uint64_t seed = 1;
  std::uint32_t stream = 0;
  std::uint32_t index = 0;
  std::vector<TimedFault> entries;

  /// Cell seed for this schedule's world: folds the triple AND a content
  /// hash of the entries, so two mutants of one candidate run distinct
  /// worlds while every replay path reproduces them exactly.
  std::uint64_t rng_seed() const;

  /// "schedule seed=S stream=T index=I entries=N".
  std::string repro() const;

  /// Pure function of the triple: 1..3 entries with seeded kinds, windows,
  /// triggers and per-entry plan indices (index*16 + slot, so entry streams
  /// never collide across schedules of one campaign).
  static FaultSchedule generate(std::uint64_t seed, std::uint32_t stream,
                                std::uint32_t index);

  bool operator==(const FaultSchedule&) const = default;
};

// ---- Codec (journal payloads, corpus entries, --schedule-hex replay) ------

/// The one FaultPlan wire form, shared by schedule entries and conformance
/// records: kind u8, seed u64, stream u32, index u32, family u8, spike u64.
void encode_plan(const FaultPlan& plan, std::string& out);
/// Reads one plan; false on an out-of-range kind or family.
bool decode_plan(wire::Reader& in, FaultPlan& plan);

/// Serialises `schedule` (appends to `out`). Pure function of the value, so
/// equal schedules are byte-identical everywhere they are persisted.
void encode_schedule(const FaultSchedule& schedule, std::string& out);

inline std::string encode_schedule(const FaultSchedule& schedule) {
  std::string out;
  encode_schedule(schedule, out);
  return out;
}

/// Inverse of encode_schedule; nullopt on malformed, out-of-range, or
/// trailing bytes.
std::optional<FaultSchedule> decode_schedule(std::string_view bytes);

/// Lower-case hex of encode_schedule() — the corpus-file / repro-line form.
std::string schedule_to_hex(const FaultSchedule& schedule);

/// Inverse of schedule_to_hex; nullopt on non-hex input or a malformed
/// underlying schedule.
std::optional<FaultSchedule> schedule_from_hex(std::string_view hex);

// ---- Window sampling (generator + hunt mutations) -------------------------

/// Seeded window-start sample, biased hard toward the session's head: the
/// events a window can actually intersect (DNS exchanges, the first SYN
/// wave, the CAD wave) cluster in the first few hundred ms, and half of all
/// sampled starts are exactly 0 so untriggered entries reliably cover the
/// initial resolution.
SimTime sample_window_start(SplitMix64& rng);

/// Seeded window-length sample: 1-in-4 open (duration 0), else 25..500 ms.
SimTime sample_window_duration(SplitMix64& rng);

/// One seeded entry (generator + the hunt's add mutation): draws an
/// injecting kind (never kNone), target family, spike, trigger, window start
/// and duration from `rng`, in that order; the plan's provenance is
/// (seed, stream, plan_index).
TimedFault seeded_entry(SplitMix64& rng, std::uint64_t seed,
                        std::uint32_t stream, std::uint32_t plan_index);

// ---- Injection ------------------------------------------------------------

/// The one fault injector: multiplexes entries through per-layer hooks. A
/// single FaultPlan runs as a one-entry always-on schedule (TimedFault{plan}:
/// trigger kNone, start 0, open window). Entries are consulted in order; for
/// DNS every active entry applies (wire mutators chain), for transport the
/// first non-accept action wins. Hooks capture `this`, so the injector must
/// outlive the stacks it attaches to.
class ScheduleInjector {
 public:
  /// Borrows `entries`, which must outlive the injector (a cell's spec keeps
  /// them). Keeps one mutation stream per entry, drawn from `memory` (a cell
  /// passes its world's arena). Windowed or triggered entries read `clock`;
  /// a null clock with any such entry throws std::invalid_argument.
  ScheduleInjector(
      std::span<const TimedFault> entries, const simnet::EventLoop* clock,
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());
  /// Over `schedule`'s entries (perfbench's mirror builds it this way).
  ScheduleInjector(const FaultSchedule& schedule,
                   const simnet::EventLoop& loop)
      : ScheduleInjector{schedule.entries, &loop} {}
  ScheduleInjector(FaultSchedule&&, const simnet::EventLoop&) = delete;
  ScheduleInjector(const ScheduleInjector&) = delete;
  ScheduleInjector& operator=(const ScheduleInjector&) = delete;

  /// Install hooks on layers the entries target or must observe for a
  /// trigger. No-ops elsewhere (null-hook fast path untouched).
  void attach(dns::AuthServer& server);
  void attach(transport::TcpStack& tcp);
  void attach(transport::QuicStack& quic);

 private:
  bool needs_dns_hook() const;
  bool needs_tcp_hook() const;
  bool needs_quic_hook() const;

  /// Whether entry i's window covers the current sim time.
  bool entry_active(std::size_t i) const;

  void on_dns_response(const dns::DnsMessage& query,
                       dns::DnsMessage& response, SimTime& delay,
                       dns::ResponseDirectives& out);
  transport::AcceptAction on_accept(bool quic, const simnet::Endpoint& peer);

  std::span<const TimedFault> entries_;
  /// Null when every entry is always-on: then nothing reads the clock.
  const simnet::EventLoop* loop_;
  /// One mutation stream per entry, seeded from the entry plan's rng_seed()
  /// — entry k of a schedule draws identically no matter which other
  /// entries are active (what keeps delta-minimization replayable).
  std::pmr::vector<SplitMix64> rngs_;

  // Trigger anchors: set after the first matching event is evaluated.
  std::optional<SimTime> first_dns_query_;
  std::optional<SimTime> first_dns_response_;
  std::optional<SimTime> first_syn_;
};

}  // namespace lazyeye::conformance
