// simnet payload buffer: pooled bytes for the per-packet data path.
//
// A Buffer owns a run of bytes either inline (payloads up to kInlineCapacity
// live in the object itself — TCP control segments and one-byte QUIC frames
// never touch the heap) or in a heap block borrowed from a BufferPool
// free-list, so steady-state packet traffic recycles a bounded set of blocks
// instead of allocating per send. Moves are cheap (block pointer steal +
// small memcpy); copies deep-copy into *unpooled* storage so a copied payload
// (capture taps, test snapshots) can safely outlive the pool that backed the
// original.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace lazyeye::simnet {

/// Free-list of heap blocks (capacity-preserving recycled vectors).
/// Single-threaded by design: each simnet::Network owns one, and a Network
/// is only ever driven from one thread (campaign cells are isolated worlds).
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty block, reusing a released one when available.
  std::vector<std::uint8_t> acquire() {
    ++acquires_;
    if (free_.empty()) return {};
    ++reuses_;
    std::vector<std::uint8_t> block = std::move(free_.back());
    free_.pop_back();
    return block;
  }

  /// Returns a block to the free-list (cleared, capacity kept). Excess
  /// blocks beyond kMaxIdle are dropped so a burst cannot pin memory forever.
  void release(std::vector<std::uint8_t>&& block) {
    if (free_.size() >= kMaxIdle || block.capacity() == 0) return;
    block.clear();
    free_.push_back(std::move(block));
  }

  /// Observability: total acquire() calls / how many were free-list hits.
  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t reuses() const { return reuses_; }
  std::size_t idle() const { return free_.size(); }

 private:
  static constexpr std::size_t kMaxIdle = 4096;

  std::vector<std::vector<std::uint8_t>> free_;
  std::uint64_t acquires_ = 0;
  std::uint64_t reuses_ = 0;
};

class Buffer {
 public:
  /// Payloads up to this size are stored inline (no pool, no heap).
  static constexpr std::size_t kInlineCapacity = 24;

  Buffer() noexcept = default;
  /// Empty buffer that borrows blocks from `pool` when it outgrows the
  /// inline storage. The pool must outlive every block-backed Buffer
  /// created against it (in simnet the Network owns both).
  explicit Buffer(BufferPool* pool) noexcept : pool_{pool} {}
  Buffer(BufferPool* pool, std::span<const std::uint8_t> bytes) : pool_{pool} {
    append(bytes);
  }

  /// Wraps an existing heap vector without copying (unpooled block).
  static Buffer adopt(std::vector<std::uint8_t> block) {
    Buffer b;
    b.block_ = std::move(block);
    b.heap_ = true;
    return b;
  }

  // Copies are deep and UNPOOLED: the copy owns plain heap storage and does
  // not reference the source's pool, so captured packets may outlive it.
  Buffer(const Buffer& other) { copy_from(other); }
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      release_block();
      heap_ = false;
      inline_size_ = 0;
      pool_ = nullptr;
      copy_from(other);
    }
    return *this;
  }

  Buffer(Buffer&& other) noexcept
      : block_{std::move(other.block_)},
        pool_{other.pool_},
        inline_size_{other.inline_size_},
        heap_{other.heap_} {
    if (!heap_ && inline_size_ > 0) {
      std::memcpy(inline_bytes_, other.inline_bytes_, inline_size_);
    }
    other.heap_ = false;
    other.inline_size_ = 0;
  }

  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release_block();
      block_ = std::move(other.block_);
      pool_ = other.pool_;
      inline_size_ = other.inline_size_;
      heap_ = other.heap_;
      if (!heap_ && inline_size_ > 0) {
        std::memcpy(inline_bytes_, other.inline_bytes_, inline_size_);
      }
      other.heap_ = false;
      other.inline_size_ = 0;
    }
    return *this;
  }

  ~Buffer() { release_block(); }

  // -- read access ----------------------------------------------------------
  const std::uint8_t* data() const {
    return heap_ ? block_.data() : inline_bytes_;
  }
  std::uint8_t* data() { return heap_ ? block_.data() : inline_bytes_; }
  std::size_t size() const { return heap_ ? block_.size() : inline_size_; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }
  std::uint8_t front() const { return data()[0]; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  std::uint8_t& operator[](std::size_t i) { return data()[i]; }

  std::span<const std::uint8_t> span() const { return {data(), size()}; }
  operator std::span<const std::uint8_t>() const {  // NOLINT: deliberate
    return span();
  }

  bool operator==(const Buffer& other) const {
    return size() == other.size() &&
           std::memcmp(data(), other.data(), size()) == 0;
  }

  // -- write access ---------------------------------------------------------
  /// Drops the contents but keeps the storage (block stays attached).
  void clear() {
    if (heap_) {
      block_.clear();
    } else {
      inline_size_ = 0;
    }
  }

  void reserve(std::size_t n) {
    if (!heap_ && n > kInlineCapacity) promote(n);
    if (heap_) block_.reserve(n);
  }

  void resize(std::size_t n) {
    if (heap_) {
      block_.resize(n);
      return;
    }
    if (n <= kInlineCapacity) {
      if (n > inline_size_) {
        std::memset(inline_bytes_ + inline_size_, 0, n - inline_size_);
      }
      inline_size_ = static_cast<std::uint8_t>(n);
      return;
    }
    promote(n);
    block_.resize(n);
  }

  void push_back(std::uint8_t b) {
    if (heap_) {
      block_.push_back(b);
      return;
    }
    if (inline_size_ < kInlineCapacity) {
      inline_bytes_[inline_size_++] = b;
      return;
    }
    promote(inline_size_ + 1);
    block_.push_back(b);
  }

  void append(const void* src, std::size_t n) {
    if (n == 0) return;
    if (!heap_ && inline_size_ + n <= kInlineCapacity) {
      std::memcpy(inline_bytes_ + inline_size_, src, n);
      inline_size_ += static_cast<std::uint8_t>(n);
      return;
    }
    if (!heap_) promote(inline_size_ + n);
    const auto* bytes = static_cast<const std::uint8_t*>(src);
    block_.insert(block_.end(), bytes, bytes + n);
  }
  void append(std::span<const std::uint8_t> bytes) {
    append(bytes.data(), bytes.size());
  }

  void assign(std::span<const std::uint8_t> bytes) {
    clear();
    append(bytes);
  }

  /// Forces block-backed storage (promoting inline contents) and exposes the
  /// backing vector so the wire::put_* writers can serialise straight into
  /// the pooled block with zero copies. The reference stays valid until the
  /// Buffer is moved, destroyed, or shrunk back via operator=.
  std::vector<std::uint8_t>& heap_storage() {
    if (!heap_) promote(inline_size_);
    return block_;
  }

  // -- observability --------------------------------------------------------
  bool is_inline() const { return !heap_; }
  BufferPool* pool() const { return pool_; }

 private:
  void promote(std::size_t min_capacity) {
    std::vector<std::uint8_t> block =
        pool_ != nullptr ? pool_->acquire() : std::vector<std::uint8_t>{};
    block.clear();
    if (block.capacity() < min_capacity) block.reserve(min_capacity);
    block.insert(block.end(), inline_bytes_, inline_bytes_ + inline_size_);
    block_ = std::move(block);
    inline_size_ = 0;
    heap_ = true;
  }

  void release_block() {
    if (heap_) {
      if (pool_ != nullptr) pool_->release(std::move(block_));
      heap_ = false;
    }
  }

  void copy_from(const Buffer& other) {
    // pool_ stays null: see class comment.
    if (other.size() <= kInlineCapacity) {
      std::memcpy(inline_bytes_, other.data(), other.size());
      inline_size_ = static_cast<std::uint8_t>(other.size());
    } else {
      block_.assign(other.begin(), other.end());
      heap_ = true;
    }
  }

  std::vector<std::uint8_t> block_;  // valid contents iff heap_
  BufferPool* pool_ = nullptr;       // null = unpooled (plain heap blocks)
  std::uint8_t inline_size_ = 0;     // valid iff !heap_
  bool heap_ = false;
  std::uint8_t inline_bytes_[kInlineCapacity];
};

}  // namespace lazyeye::simnet
