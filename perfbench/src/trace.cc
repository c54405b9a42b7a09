#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perf {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint32_t cell)
    : tracer_{tracer},
      index_{tracer.spans_.size()},
      saved_parent_{tracer.open_parent_},
      start_allocs_{thread_allocs()} {
  Span span;
  span.name = name;
  span.parent = tracer.open_parent_;
  span.cell = cell;
  span.start_ns = now_ns();
  tracer_.spans_.push_back(span);
  tracer_.open_parent_ = static_cast<std::int64_t>(index_);
}

const Span& Tracer::Scope::close() {
  Span& span = tracer_.spans_[index_];
  if (open_) {
    open_ = false;
    span.end_ns = now_ns();
    const AllocCount now = thread_allocs();
    span.allocs.calls = now.calls - start_allocs_.calls;
    span.allocs.bytes = now.bytes - start_allocs_.bytes;
    tracer_.open_parent_ = saved_parent_;
  }
  return span;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  bool ok = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ok = std::fprintf(file,
                      "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                      "\"cell\": %u, \"start_ns\": %llu, \"end_ns\": %llu, "
                      "\"allocs\": %llu, \"alloc_bytes\": %llu}\n",
                      i, s.name, static_cast<long long>(s.parent), s.cell,
                      static_cast<unsigned long long>(s.start_ns),
                      static_cast<unsigned long long>(s.end_ns),
                      static_cast<unsigned long long>(s.allocs.calls),
                      static_cast<unsigned long long>(s.allocs.bytes)) > 0 &&
         ok;
  }
  return std::fclose(file) == 0 && ok;
}

}  // namespace perf
