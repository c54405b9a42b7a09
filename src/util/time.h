// Simulated-time primitives.
//
// The entire library runs on virtual time: SimTime is a duration since the
// simulation epoch (t = 0 at EventLoop construction).  No component may read
// a wall clock; this keeps every run bit-for-bit reproducible and gives the
// measurement pipeline exact timestamps (the paper's physical testbed relies
// on <1 ms capture accuracy; we have exact virtual stamps).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace lazyeye {

/// Duration/instant type used across the simulator (ns granularity).
using SimTime = std::chrono::nanoseconds;

/// Convenience literals-ish constructors.
constexpr SimTime ns(std::int64_t v) { return SimTime{v}; }
constexpr SimTime us(std::int64_t v) { return std::chrono::microseconds{v}; }
constexpr SimTime ms(std::int64_t v) { return std::chrono::milliseconds{v}; }
constexpr SimTime sec(std::int64_t v) { return std::chrono::seconds{v}; }
constexpr SimTime minutes(std::int64_t v) { return std::chrono::minutes{v}; }

/// Fractional milliseconds, exact to 1 us.
constexpr SimTime ms_f(double v) {
  return us(static_cast<std::int64_t>(v * 1000.0));
}

/// Duration expressed in (possibly fractional) milliseconds.
constexpr double to_ms(SimTime t) {
  return std::chrono::duration<double, std::milli>(t).count();
}

/// Duration expressed in (possibly fractional) seconds.
constexpr double to_sec(SimTime t) {
  return std::chrono::duration<double>(t).count();
}

/// Human-readable rendering, e.g. "250ms", "1.75s", "50us": whole
/// seconds and anything from 10 s up in s, from 1 ms in ms, from 1 us in us,
/// else ns, each with up to three fractional digits rounded like printf
/// "%.3f" and trailing zeros dropped.
std::string format_duration(SimTime t);

/// What format_duration(t) looks like once its digit runs are collapsed:
/// bit 0 a leading '-', bit 1 a fractional part, bits 2-3 the unit (0 s,
/// 1 ms, 2 us, 3 ns). Two durations have equal shapes exactly when their
/// texts differ only in their digits ("43ms" and "0ms" do; "1.5ms", "250us"
/// and "12.5s" do not).
std::uint8_t duration_shape(SimTime t);

}  // namespace lazyeye
