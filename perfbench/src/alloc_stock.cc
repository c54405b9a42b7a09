// Timed executable: the stock global allocator, no counters.
#include "trace.h"

namespace perf {

AllocCount thread_allocs() { return {}; }
bool allocs_counted() { return false; }

}  // namespace perf
