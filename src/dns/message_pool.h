// Thread-local recycling pools for the DNS layer's scratch state: message
// envelopes, name compressors, zone lookup results and address lists.
//
// The codec's decode_into()/encode_into() entry points make *warm* scratch
// cheap to reuse, but every simulated world builds fresh DnsClient/AuthServer
// /StubResolver objects whose scratch would start cold — so short-lived
// cells paid the full growth cost (section vectors, compression entries,
// lookup pointers) on every build. Checking scratch out of a thread-local
// pool lets that capacity survive across consecutive cells on the same
// worker thread, the same way ScenarioPool retains arena chunks and packet
// buffers.
//
// Thread-locality matches the execution model: a cell runs entirely on one
// worker thread, so no synchronisation is needed and scratch never moves
// between threads. Released values keep their contents (a message's
// sections are NOT cleared): every user overwrites its scratch before
// reading it — decode_into() resizes to the wire counts and assigns
// elements in place, encode_into() clears its compressor, lookup_into() and
// addresses_for_into() clear their outputs — so stale contents are exactly
// the storage being recycled.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dns/message.h"

namespace lazyeye::dns {

/// One thread's idle values of type T.
template <typename T>
class ScratchPool {
 public:
  /// This thread's pool.
  static ScratchPool& local() {
    thread_local ScratchPool pool;
    return pool;
  }

  /// Checks out a value (warm capacity when available).
  T acquire() {
    if (idle_.empty()) return T{};
    T value = std::move(idle_.back());
    idle_.pop_back();
    return value;
  }

  /// Returns a value to the pool. Contents are retained deliberately —
  /// see the header comment. Beyond the cap the value is simply dropped.
  void release(T&& value) {
    if (idle_.size() < kCap) idle_.push_back(std::move(value));
  }

  std::size_t idle() const { return idle_.size(); }

 private:
  // Enough for the worst simultaneous residency per thread (for messages:
  // client query + response + outcome envelopes, server query + response,
  // analysis scratch) with headroom; keeps a stuck thread from hoarding
  // unbounded capacity.
  static constexpr std::size_t kCap = 16;
  std::vector<T> idle_;
};

using MessagePool = ScratchPool<DnsMessage>;

/// RAII checkout: `Pooled<T> x; use(*x);` — releases on destruction.
template <typename T>
class Pooled {
 public:
  Pooled() : value_{ScratchPool<T>::local().acquire()} {}
  ~Pooled() { ScratchPool<T>::local().release(std::move(value_)); }

  Pooled(const Pooled&) = delete;
  Pooled& operator=(const Pooled&) = delete;

  T& operator*() { return value_; }
  const T& operator*() const { return value_; }
  T* operator->() { return &value_; }
  const T* operator->() const { return &value_; }

 private:
  T value_;
};

using PooledMessage = Pooled<DnsMessage>;

}  // namespace lazyeye::dns
