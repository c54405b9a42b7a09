#include "simnet/event_loop.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace lazyeye::simnet {

namespace {
// A run() that executes this many callbacks is assumed to be a feedback loop
// (e.g. two hosts retransmitting at each other forever). Large enough for the
// heaviest bench sweep, small enough to fail fast in tests.
constexpr std::uint64_t kRunawayCap = 200'000'000;
}  // namespace

EventLoop::EventLoop(std::pmr::memory_resource* memory)
    : heap_{memory}, memory_{memory}, chunks_{memory}, free_slots_{memory} {}

EventLoop::~EventLoop() {
  for (std::uint32_t slot = 0; slot < slot_count_; ++slot) {
    std::destroy_at(&slot_at(slot));
  }
  for (Slot* chunk : chunks_) {
    memory_->deallocate(chunk, kChunkSlots * sizeof(Slot), alignof(Slot));
  }
}

// ------------------------------------------------------------------ slots --

void EventLoop::disarm(Slot& s) {
  s.seq = kIdle;
  // Wrap at the packed width so cancel()'s equality keeps matching the bits
  // a TimerId can actually carry.
  s.generation = (s.generation + 1) & kGenMask;
  --live_count_;
}

void EventLoop::release(std::uint32_t slot) {
  slot_at(slot).cb = nullptr;
  free_slots_.push_back(slot);
}

// --------------------------------------------------------------- schedule --

TimerId EventLoop::schedule_at(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_count_ >= kSlotMask) {
      // > 16M concurrently pending timers means something is leaking events.
      throw std::runtime_error("EventLoop: timer slot table exhausted");
    }
    if ((slot_count_ & (kChunkSlots - 1)) == 0) {
      // Grow by one chunk, whose slots are built as they are handed out.
      // Every allocation comes before the table changes, so a throw leaves
      // it as it was; the free list gets room for every slot, so release()
      // never allocates.
      const std::size_t slots = std::size_t{slot_count_} + kChunkSlots;
      if (free_slots_.capacity() < slots) free_slots_.reserve(2 * slots);
      if (chunks_.size() == chunks_.capacity()) {
        chunks_.reserve(2 * chunks_.size() + 1);
      }
      chunks_.push_back(static_cast<Slot*>(
          memory_->allocate(kChunkSlots * sizeof(Slot), alignof(Slot))));
    }
    slot = slot_count_++;
    std::construct_at(&slot_at(slot));
  }
  Slot& s = slot_at(slot);
  s.cb = std::move(cb);  // the callback's last move: the slot never relocates
  s.seq = next_seq_;
  heap_.push_back(Key{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), KeyLater{});
  ++live_count_;
  ++heap_scheduled_;
  return TimerId{(s.generation << kSlotBits) | (std::uint64_t{slot} + 1)};
}

TimerId EventLoop::schedule_after(SimTime delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

bool EventLoop::cancel(TimerId id) {
  const std::uint64_t slot_plus1 = id.value & kSlotMask;
  if (slot_plus1 == 0 || slot_plus1 > slot_count_) return false;
  Slot& s = slot_at(static_cast<std::uint32_t>(slot_plus1 - 1));
  if (s.seq == kIdle || s.generation != (id.value >> kSlotBits)) return false;
  // The callback is destroyed now; its heap key goes stale.
  disarm(s);
  release(static_cast<std::uint32_t>(slot_plus1 - 1));
  return true;
}

// -------------------------------------------------------------- execution --

bool EventLoop::pop_next(const SimTime* deadline) {
  while (!heap_.empty()) {
    const Key top = heap_.front();
    Slot& s = slot_at(top.slot);
    const bool live = s.seq == top.seq;
    if (live && deadline != nullptr && top.when > *deadline) return false;
    std::pop_heap(heap_.begin(), heap_.end(), KeyLater{});
    heap_.pop_back();
    if (!live) continue;  // cancelled: the callback is already gone
    // Disarm before running, so the callback cannot cancel itself, and keep
    // the slot off the free list until it returns (or throws), so timers
    // it schedules never land on the callable that is running.
    disarm(s);
    struct Release {
      EventLoop& loop;
      std::uint32_t slot;
      ~Release() { loop.release(slot); }
    } release{*this, top.slot};
    now_ = top.when;
    ++processed_;
    s.cb();
    return true;
  }
  return false;
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
