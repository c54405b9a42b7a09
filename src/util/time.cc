#include "util/time.h"

#include <charconv>
#include <cstring>

namespace lazyeye {

namespace {

/// Longest text write_duration produces, with room to spare: a sign, the
/// 10 integer digits of INT64_MAX ns in s, a dot, 3 decimals and a unit.
constexpr std::size_t kDurationChars = 32;

/// Writes `v` with up to 3 fractional digits (std::to_chars fixed
/// precision rounds exactly like printf "%.3f"), then strips trailing zeros
/// and a bare dot. Returns the end of the text.
char* write_trimmed(char* out, char* last, double v) {
  char* end = std::to_chars(out, last, v, std::chars_format::fixed, 3).ptr;
  while (end > out && end[-1] == '0') --end;
  if (end > out && end[-1] == '.') --end;
  return end;
}

/// Writes format_duration(t) into `buf` and returns its length; `unit` is
/// set to the shape's unit code (see duration_shape).
std::size_t write_duration(char (&buf)[kDurationChars], SimTime t,
                           std::uint8_t& unit) {
  static constexpr const char* kUnits[] = {"s", "ms", "us", "ns"};
  char* const last = buf + kDurationChars;
  const std::int64_t n = t.count();
  char* p = buf;
  if (n == 0) {
    *p++ = '0';
    unit = 1;
  } else {
    // The unsigned magnitude: negating INT64_MIN would wrap back onto
    // itself.
    std::uint64_t m = static_cast<std::uint64_t>(n);
    if (n < 0) {
      *p++ = '-';
      m = 0 - m;
    }
    const auto v = static_cast<double>(m);
    if (m % 1'000'000'000 == 0 || m >= 10'000'000'000) {
      unit = 0;
      p = write_trimmed(p, last, v / 1e9);
    } else if (m >= 1'000'000) {
      unit = 1;
      p = write_trimmed(p, last, v / 1e6);
    } else if (m >= 1'000) {
      unit = 2;
      p = write_trimmed(p, last, v / 1e3);
    } else {
      unit = 3;
      p = std::to_chars(p, last, m).ptr;
    }
  }
  const std::size_t unit_size = std::strlen(kUnits[unit]);
  std::memcpy(p, kUnits[unit], unit_size);
  return static_cast<std::size_t>(p - buf) + unit_size;
}

}  // namespace

std::string format_duration(SimTime t) {
  char buf[kDurationChars];
  std::uint8_t unit = 0;
  return std::string(buf, write_duration(buf, t, unit));
}

std::uint8_t duration_shape(SimTime t) {
  char buf[kDurationChars];
  std::uint8_t unit = 0;
  const std::size_t size = write_duration(buf, t, unit);
  const bool negative = buf[0] == '-';
  const bool fraction = std::memchr(buf, '.', size) != nullptr;
  return static_cast<std::uint8_t>((negative ? 1 : 0) | (fraction ? 2 : 0) |
                                   unit << 2);
}

}  // namespace lazyeye
