// Deterministic discrete-event loop over virtual time.
//
// Single-threaded: callbacks run strictly in (time, insertion-order) order.
// This is the substrate every other module schedules against (DNS timeouts,
// TCP retransmissions, HE connection-attempt delays, netem delivery...).
//
// Pending callbacks never move. Each one is built into a slot, runs there in
// place and is destroyed exactly once: after it has run, or inside cancel().
// Slots live in fixed chunks of kChunkSlots drawn from the loop's memory
// resource; slot i is chunks_[i / kChunkSlots][i % kChunkSlots], and a chunk
// is never moved or freed before the loop is, so growing the table while a
// callback runs leaves every slot where it is. The binary min-heap
// holds only trivially copyable {when, seq, slot} keys in (when, seq) order.
// A slot remembers the seq of the timer it holds, so the key of a cancelled
// timer is recognised as stale and dropped when it reaches the top. Slots
// recycle through a free list, and TimerIds carry a per-slot generation.
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
/// every time a timer in the slot runs or is cancelled, so a stale handle
/// can never alias a later timer that happens to reuse the same slot.
struct TimerId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
  friend bool operator==(TimerId a, TimerId b) { return a.value == b.value; }
};

class EventLoop {
 public:
  using Callback = InlineFunction<void()>;

  /// All growable storage (heap keys, callback slots) draws from `memory`. A
  /// world-pooled Network passes its arena, so a fresh per-cell loop reuses
  /// the previous cell's high-water-mark storage without a single heap
  /// allocation; the default is the global resource.
  explicit EventLoop(
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());
  /// Destroys the callbacks still pending and returns the slot chunks.
  ~EventLoop();
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
  // stored generation wraps at 40 bits so the comparison in cancel() always
  // sees exactly the bits that survive packing; a stale id could alias only
  // after a full 2^40 timers in one slot between arm and check.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (~std::uint64_t{0}) >> kSlotBits;
  /// Slot::seq of a slot holding no pending timer (free, or running).
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  /// Slots per chunk: a power of two, so a slot index splits by shift and
  /// mask. A cell holds at most a few dozen pending timers.
  static constexpr std::uint32_t kChunkShift = 5;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct KeyLater {
    // Min-heap comparator for std::push_heap/std::pop_heap.
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Where a timer's callback lives from schedule_at() until it is
  /// destroyed. Generations start at 1 so an armed timer's id is never 0.
  struct Slot {
    Callback cb;
    std::uint64_t seq = kIdle;  // seq of the pending timer held here
    std::uint64_t generation = 1;
  };

  Slot& slot_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }
  /// Ends the pending timer in `s`: its TimerId and heap key stop matching.
  void disarm(Slot& s);
  /// Destroys the slot's callback, then returns the slot to the free list.
  void release(std::uint32_t slot);
  /// Runs the earliest pending timer in place; respects `deadline` when
  /// non-null. Returns false if nothing (eligible) remains.
  bool pop_next(const SimTime* deadline);

  /// Binary min-heap over (when, seq); keys of cancelled timers stay until
  /// they surface at the top.
  std::pmr::vector<Key> heap_;
  std::pmr::memory_resource* memory_;
  std::pmr::vector<Slot*> chunks_;  // storage for kChunkSlots slots each
  std::uint32_t slot_count_ = 0;    // slots built: [0, slot_count_)
  std::pmr::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;  // scheduled, not yet run/cancelled
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t heap_scheduled_ = 0;
};

}  // namespace lazyeye::simnet
