// ScenarioPool: per-thread reuse of cell-world memory across campaign cells.
//
// A WorldMemory bundles the two retained stores a cell's world draws from:
// the BufferPool packet payloads recycle through, and the Arena everything
// else (Network, Hosts, zones, stacks, client, capture, EventLoop tables)
// is built in. The BufferPool is declared FIRST so it is destroyed LAST:
// when ~Arena runs the world's finalizers, parked packets and captured
// payloads release their pooled blocks into a still-live pool.
//
// The pool is thread-local: the campaign WorkerPool parks persistent
// threads, so consecutive cells claimed by one worker lease the same
// WorldMemory — warm arena chunks, warm payload blocks, a warm timer heap
// — and per-cell setup/teardown stops paying the allocator.
//
// Usage (one cell):
//   simnet::WorldLease lease;                    // acquire thread's memory
//   auto* net = lease.arena().create<Network>(lease.memory(), seed);
//   ... arena-create the rest of the world, run the cell ...
//   // ~WorldLease: arena.reset() tears the world down in one sweep and
//   // returns the memory (chunks + pooled blocks intact) for the next cell.
//
// testbed::TwoNodeWorld is the one world that does this for testbed,
// conformance and web-tool cells; it owns its lease.
// The resolver lab builds its multi-server world the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simnet/arena.h"
#include "simnet/buffer.h"

namespace lazyeye::simnet {

/// Everything a cell's world allocates from, retained across cells.
struct WorldMemory {
  // Order matters: buffers must outlive the arena's finalizers (see above).
  BufferPool buffers;
  Arena arena;
};

class ScenarioPool {
 public:
  ScenarioPool() = default;
  ScenarioPool(const ScenarioPool&) = delete;
  ScenarioPool& operator=(const ScenarioPool&) = delete;

  /// The calling thread's pool (each worker thread owns one).
  static ScenarioPool& local() {
    thread_local ScenarioPool pool;
    return pool;
  }

  /// Hands out a WorldMemory, preferring a parked (warm) one.
  WorldMemory& acquire() {
    ++leases_;
    if (!idle_.empty()) {
      ++reuses_;
      WorldMemory* mem = idle_.back().release();
      idle_.pop_back();
      return *mem;
    }
    return *new WorldMemory{};
  }

  /// Resets the arena (destroying the cell's world) and parks the memory.
  void release(WorldMemory& mem) {
    mem.arena.reset();
    idle_.push_back(std::unique_ptr<WorldMemory>{&mem});
  }

  // -- observability ---------------------------------------------------------
  std::size_t idle() const { return idle_.size(); }
  std::uint64_t leases() const { return leases_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  std::vector<std::unique_ptr<WorldMemory>> idle_;
  std::uint64_t leases_ = 0;
  std::uint64_t reuses_ = 0;
};

/// RAII lease of the calling thread's WorldMemory for one cell.
class WorldLease {
 public:
  WorldLease() : WorldLease{ScenarioPool::local()} {}
  explicit WorldLease(ScenarioPool& pool)
      : pool_{&pool}, memory_{&pool.acquire()} {}

  WorldLease(const WorldLease&) = delete;
  WorldLease& operator=(const WorldLease&) = delete;

  ~WorldLease() { pool_->release(*memory_); }

  // A const lease still hands out its memory: constness covers the lease,
  // not the world built in it.
  WorldMemory& memory() const { return *memory_; }
  Arena& arena() const { return memory_->arena; }

 private:
  ScenarioPool* pool_;
  WorldMemory* memory_;
};

}  // namespace lazyeye::simnet
