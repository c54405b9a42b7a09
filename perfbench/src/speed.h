// Machine-speed reference for the end-to-end metrics.
//
// The benchmark runs on shared hosts whose cores change speed by up to 2x
// within minutes as neighbouring load comes and goes (clock frequency, busy
// SMT siblings, shared caches). Such a swing moves every timing of a run
// alike, so a run's medians say more about the host's load than about the
// program. Each timed chunk of a run therefore starts with a fixed reference
// kernel on the same thread, and the chunk's times are scaled by
// kReferenceNs / (kernel time): the end-to-end metrics read "as on a host
// where the kernel takes kReferenceNs". The kernel is the benchmark's own
// code and calls nothing in the library, so a faster library moves the
// scaled metrics exactly as it moves the raw ones; the raw figures are
// reported next to them.
#pragma once

#include <cstdint>

namespace perf {

/// Nominal kernel time, ns. It only fixes the unit of the scaled figures:
/// any constant would do, as long as it never changes.
inline constexpr double kReferenceNs = 700000.0;

/// Runs the reference kernel `repeats` times on this thread and returns the
/// fastest wall time in ns (the fastest run is the one no interrupt or
/// preemption landed in).
std::uint64_t reference_kernel_ns(int repeats = 3);

/// kReferenceNs / reference_kernel_ns(repeats): multiply a time measured
/// now by this to express it at reference speed (divide a rate by it).
double speed_scale(int repeats = 3);

}  // namespace perf
