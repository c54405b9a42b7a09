// Deterministic discrete-event loop over virtual time.
//
// Single-threaded: callbacks run strictly in (time, insertion-order) order.
// This is the substrate every other module schedules against (DNS timeouts,
// TCP retransmissions, HE connection-attempt delays, netem delivery...).
//
// Every timer lives in one binary min-heap over (when, seq). Cancellation is
// lazy: cancel() only disarms the timer's liveness slot, and a disarmed node
// is pruned when it reaches the top of the heap. Callbacks are stored in
// InlineCallback nodes (small captures never touch the heap), and liveness is
// tracked by generation-tagged slots — no per-event hash-set insert/erase on
// the hot path.
//
// There is deliberately no timer wheel. A measurement cell holds at most a
// few dozen pending timers (Resolution Delay, Connection Attempt Delay, SYN
// retransmits, DNS timeouts, netem delivery), and at that size a heap
// push/pop is as cheap as a wheel's slot insert plus its tick staging and
// cascades, while the heap's (when, seq) order is exact by construction.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "simnet/inline_callback.h"
#include "util/time.h"

namespace lazyeye::simnet {

/// Handle for cancelling a scheduled callback. Default-constructed = invalid.
///
/// The value packs (generation << kSlotBits) | (slot + 1): the slot indexes
/// a recycled entry in the loop's slot table, and the generation is bumped
/// every time the slot is retired, so a stale handle held across the event's
/// execution (or cancellation) can never alias a later timer that happens to
/// reuse the same slot.
struct TimerId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
  friend bool operator==(TimerId a, TimerId b) { return a.value == b.value; }
};

class EventLoop {
 public:
  using Callback = InlineCallback;

  /// All growable storage (heap, liveness slots) draws from `memory`. A
  /// world-pooled Network passes its arena, so a fresh per-cell loop reuses
  /// the previous cell's high-water-mark storage without a single heap
  /// allocation; the default is the global resource.
  explicit EventLoop(
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time (starts at 0).
  SimTime now() const { return now_; }

  /// Schedules `cb` at absolute virtual time `when` (clamped to now()).
  TimerId schedule_at(SimTime when, Callback cb);

  /// Schedules `cb` after `delay` from now.
  TimerId schedule_after(SimTime delay, Callback cb);

  /// Cancels a pending callback; returns false if it already ran / was
  /// cancelled / is invalid.
  bool cancel(TimerId id);

  /// Runs until no events remain (or the safety cap on processed events
  /// trips, which indicates a runaway feedback loop in a test).
  void run();

  /// Processes all events with time <= deadline, then advances now() to
  /// `deadline`. Returns the number of events processed.
  std::size_t run_until(SimTime deadline);

  /// run_until(now() + d).
  std::size_t run_for(SimTime d);

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return live_count_; }

  /// Total callbacks executed since construction.
  std::uint64_t processed() const { return processed_; }

  /// Observability: schedules issued since construction (every one goes
  /// through the heap).
  std::uint64_t heap_scheduled() const { return heap_scheduled_; }
  /// Always 0: kept only because perfbench/src/mirror.cc still reads it.
  std::uint64_t wheel_scheduled() const { return 0; }

 private:
  // TimerId layout: low kSlotBits hold slot+1 (so value 0 stays invalid),
  // the remaining 40 bits hold the slot's generation at arm time. The
  // stored generation wraps at 40 bits so the comparison in slot_armed()
  // always sees exactly the bits that survive packing; a stale id could
  // alias only after a full 2^40 retires of one slot between arm and check.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (~std::uint64_t{0}) >> kSlotBits;

  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;  // packed (generation, slot) — see TimerId
    // The callback lives in the node itself; small captures are stored
    // inline (InlineCallback), so scheduling typically allocates nothing.
    Callback cb;
  };
  struct EventLater {
    // Min-heap comparator for std::push_heap/std::pop_heap.
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// One recyclable liveness slot. `generation` is bumped when the slot is
  /// retired (its node ran or was pruned), invalidating every TimerId
  /// minted for an earlier use of the slot. Generations start at 1 so the
  /// packed id of an armed timer is never 0.
  struct Slot {
    std::uint64_t generation = 1;
    bool armed = false;
  };

  // Slot helpers.
  std::uint64_t arm_slot();                     // returns packed id
  bool slot_armed(std::uint64_t packed) const;  // id still live?
  void retire(std::uint64_t packed);            // bump generation, free slot

  /// Pops cancelled nodes off the heap top, retiring their slots.
  void prune_heap_top();
  /// Runs the earliest live event; respects `deadline` when non-null.
  /// Returns false if nothing (eligible) remains.
  bool pop_next(const SimTime* deadline);

  /// Binary min-heap over (when, seq), cancelled nodes included until they
  /// surface at the top.
  std::pmr::vector<Event> heap_;

  std::pmr::vector<Slot> slots_;
  std::pmr::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;  // scheduled, not yet run/cancelled
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t heap_scheduled_ = 0;
};

}  // namespace lazyeye::simnet
