#include "util/time.h"

#include <charconv>

#include "util/strings.h"

namespace lazyeye {

namespace {

/// Appends `v` with up to 3 fractional digits (std::to_chars fixed
/// precision rounds exactly like printf "%.3f"), then strips trailing zeros
/// and a bare dot.
void append_trimmed(std::string& out, double v, const char* unit) {
  char buf[64];
  char* end = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::fixed, 3)
                  .ptr;
  while (end > buf && end[-1] == '0') --end;
  if (end > buf && end[-1] == '.') --end;
  out.append(buf, end);
  out += unit;
}

}  // namespace

std::string format_duration(SimTime t) {
  const std::int64_t n = t.count();
  if (n == 0) return "0ms";
  std::string out;
  // The unsigned magnitude: negating INT64_MIN would wrap back onto itself.
  std::uint64_t m = static_cast<std::uint64_t>(n);
  if (n < 0) {
    out += '-';
    m = 0 - m;
  }
  const auto v = static_cast<double>(m);
  if (m % 1'000'000'000 == 0 || m >= 10'000'000'000) {
    append_trimmed(out, v / 1e9, "s");
  } else if (m >= 1'000'000) {
    append_trimmed(out, v / 1e6, "ms");
  } else if (m >= 1'000) {
    append_trimmed(out, v / 1e3, "us");
  } else {
    append_decimal(out, m);
    out += "ns";
  }
  return out;
}

}  // namespace lazyeye
