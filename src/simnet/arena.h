// Arena: chunked bump allocator with one-shot drop, backing a cell's world.
//
// A campaign cell builds an entire isolated world (Network, Hosts, zones,
// stacks, client, capture), runs it, and throws it away. With unique_ptr
// ownership that teardown is a cascade of individual frees and the next cell
// re-pays every malloc. The Arena replaces both halves: construction bumps a
// pointer through retained chunks (warm cells allocate nothing), and
// teardown is reset() — run the registered finalizers in reverse creation
// order, rewind the bump pointer, keep the chunks for the next cell.
//
// The Arena is a std::pmr::memory_resource, so the world's containers
// (EventLoop timer heap, Host tables, routing maps, captures) draw
// their nodes and growth from the same chunks via polymorphic allocators;
// do_deallocate is a no-op, which is exactly right for storage whose
// lifetime IS the cell.
//
// Single-threaded by design, like everything else in a cell's world: one
// arena is only ever used by the worker thread that leased it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <type_traits>
#include <utility>
#include <vector>

namespace lazyeye::simnet {

class Arena : public std::pmr::memory_resource {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : next_chunk_bytes_{first_chunk_bytes} {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() override { reset(); }

  /// Constructs a T in arena storage. Non-trivially-destructible objects are
  /// registered on an intrusive finalizer list (nodes live in the arena
  /// itself), and reset() destroys them in reverse creation order — the same
  /// order a struct of unique_ptr members would have produced.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate_raw(sizeof(T), alignof(T));
    T* obj = ::new (p) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      auto* fin = static_cast<Finalizer*>(
          allocate_raw(sizeof(Finalizer), alignof(Finalizer)));
      fin->destroy = [](void* o) { static_cast<T*>(o)->~T(); };
      fin->object = obj;
      fin->next = finalizers_;
      finalizers_ = fin;
    }
    return obj;
  }

  /// Destroys every created object (reverse creation order) and rewinds the
  /// bump pointer. Chunks are RETAINED: the next cell built on this arena
  /// reuses them and allocates nothing until it outgrows the high-water mark.
  void reset() {
    for (Finalizer* f = finalizers_; f != nullptr; f = f->next) {
      f->destroy(f->object);
    }
    finalizers_ = nullptr;
    active_ = 0;
    offset_ = 0;
    ++resets_;
  }

  // -- observability ---------------------------------------------------------
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  std::uint64_t resets() const { return resets_; }

 private:
  struct Finalizer {
    void (*destroy)(void*);
    void* object;
    Finalizer* next;
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* allocate_raw(std::size_t bytes, std::size_t align) {
    while (active_ < chunks_.size()) {
      Chunk& chunk = chunks_[active_];
      const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= chunk.size) {
        offset_ = aligned + bytes;
        return chunk.data.get() + aligned;
      }
      // Current chunk exhausted: move on to the next retained one.
      ++active_;
      offset_ = 0;
    }
    // No retained chunk fits: grow. Chunk sizes double so a world that once
    // needed N bytes settles at O(log N) chunks, and oversized single
    // allocations get a dedicated chunk.
    const std::size_t chunk_bytes =
        bytes + align > next_chunk_bytes_ ? bytes + align : next_chunk_bytes_;
    next_chunk_bytes_ = chunk_bytes * 2;
    chunks_.push_back(
        Chunk{std::make_unique<std::byte[]>(chunk_bytes), chunk_bytes});
    active_ = chunks_.size() - 1;
    offset_ = 0;
    return allocate_raw(bytes, align);
  }

  void* do_allocate(std::size_t bytes, std::size_t align) override {
    return allocate_raw(bytes, align);
  }
  void do_deallocate(void*, std::size_t, std::size_t) override {}
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  // chunk currently being bumped
  std::size_t offset_ = 0;  // bump offset within chunks_[active_]
  std::size_t next_chunk_bytes_;
  Finalizer* finalizers_ = nullptr;  // LIFO; nodes live in arena storage
  std::uint64_t resets_ = 0;
};

}  // namespace lazyeye::simnet
