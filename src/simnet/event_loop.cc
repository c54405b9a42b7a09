#include "simnet/event_loop.h"

#include <algorithm>
#include <stdexcept>

namespace lazyeye::simnet {

namespace {
// A run() that executes this many callbacks is assumed to be a feedback loop
// (e.g. two hosts retransmitting at each other forever). Large enough for the
// heaviest bench sweep, small enough to fail fast in tests.
constexpr std::uint64_t kRunawayCap = 200'000'000;
}  // namespace

EventLoop::EventLoop(std::pmr::memory_resource* memory)
    : heap_{memory}, slots_{memory}, free_slots_{memory} {}

// ---------------------------------------------------------- liveness slots --

std::uint64_t EventLoop::arm_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() >= kSlotMask) {
      // > 16M concurrently armed timers means something is leaking events.
      throw std::runtime_error("EventLoop: timer slot table exhausted");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].armed = true;
  ++live_count_;
  return (slots_[slot].generation << kSlotBits) |
         (static_cast<std::uint64_t>(slot) + 1);
}

bool EventLoop::slot_armed(std::uint64_t packed) const {
  const std::uint64_t slot_plus1 = packed & kSlotMask;
  if (slot_plus1 == 0 || slot_plus1 > slots_.size()) return false;
  const Slot& s = slots_[slot_plus1 - 1];
  return s.armed && s.generation == (packed >> kSlotBits);
}

void EventLoop::retire(std::uint64_t packed) {
  const std::uint32_t slot =
      static_cast<std::uint32_t>((packed & kSlotMask) - 1);
  Slot& s = slots_[slot];
  if (s.armed) {
    s.armed = false;
    --live_count_;
  }
  // Invalidate every TimerId minted for this use of the slot, then recycle.
  // Wrap at the packed width so slot_armed()'s equality keeps matching the
  // bits a TimerId can actually carry.
  s.generation = (s.generation + 1) & kGenMask;
  free_slots_.push_back(slot);
}

// --------------------------------------------------------------- schedule --

TimerId EventLoop::schedule_at(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint64_t id = arm_slot();
  heap_.push_back(Event{when, next_seq_++, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  ++heap_scheduled_;
  return TimerId{id};
}

TimerId EventLoop::schedule_after(SimTime delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

bool EventLoop::cancel(TimerId id) {
  // Lazy deletion: the slot is disarmed here; the node is pruned (and the
  // slot retired) when it reaches the top of the heap.
  if (!id.valid() || !slot_armed(id.value)) return false;
  Slot& s = slots_[(id.value & kSlotMask) - 1];
  s.armed = false;
  --live_count_;
  return true;
}

// -------------------------------------------------------------- execution --

void EventLoop::prune_heap_top() {
  while (!heap_.empty() && !slot_armed(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    retire(heap_.back().id);
    heap_.pop_back();
  }
}

bool EventLoop::pop_next(const SimTime* deadline) {
  prune_heap_top();
  if (heap_.empty()) return false;
  if (deadline != nullptr && heap_.front().when > *deadline) return false;
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  // Retire before running: the callback may schedule new timers, which can
  // then reuse this slot under a fresh generation without aliasing ev.id.
  retire(ev.id);
  now_ = ev.when;
  ++processed_;
  ev.cb();
  return true;
}

void EventLoop::run() {
  const std::uint64_t start = processed_;
  while (pop_next(nullptr)) {
    if (processed_ - start > kRunawayCap) {
      throw std::runtime_error("EventLoop::run: runaway event feedback loop");
    }
  }
}

std::size_t EventLoop::run_until(SimTime deadline) {
  std::size_t n = 0;
  while (pop_next(&deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t EventLoop::run_for(SimTime d) { return run_until(now_ + d); }

}  // namespace lazyeye::simnet
