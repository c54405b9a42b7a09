// Traced-run instrumentation: in-memory spans around calls into the
// library's public functions, plus per-thread allocation counters.
//
// Allocation counting exists only in the traced executable
// (alloc_counting.cc replaces the global operator new there); the timed
// executable links alloc_stock.cc and keeps the stock allocator, so no
// untraced measurement pays for the counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perf {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Running totals of operator new calls/bytes on the calling thread (zero in
/// the timed executable).
AllocCount thread_allocs();

/// True in the traced executable.
bool allocs_counted();

/// One closed span. `parent` indexes the enclosing span (-1 at top level);
/// spans of one mirror cell share `cell`.
struct Span {
  const char* name = "";
  std::int64_t parent = -1;
  std::uint32_t cell = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  AllocCount allocs;  // operator new activity inside the span (this thread)

  std::uint64_t ns() const { return end_ns - start_ns; }
};

/// Collects spans in memory; write() dumps them as JSON lines at the end of
/// the run. Single-threaded: spans are opened and closed on the thread that
/// drives the mirror cells.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint32_t cell);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// Ends the span now (idempotent) and returns it.
    const Span& close();

   private:
    Tracer& tracer_;
    std::size_t index_;
    std::int64_t saved_parent_;
    AllocCount start_allocs_;
    bool open_ = true;
  };

  Tracer() { spans_.reserve(1 << 16); }

  /// Writes one JSON object per span; returns false if the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int64_t open_parent_ = -1;
};

}  // namespace perf
