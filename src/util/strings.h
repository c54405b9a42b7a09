// Small string helpers shared across modules.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lazyeye {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Allocation-free split: invokes `fn(field)` for each (possibly empty)
/// string_view field, in order. `fn` returning false stops the walk and
/// makes for_each_split return false. Hot parsers use this instead of
/// split() to avoid materialising a vector of std::string temporaries.
template <typename Fn>
bool for_each_split(std::string_view s, char sep, Fn&& fn) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    const std::string_view field =
        pos == std::string_view::npos ? s.substr(start)
                                      : s.substr(start, pos - start);
    if (!fn(field)) return false;
    if (pos == std::string_view::npos) return true;
    start = pos + 1;
  }
}

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Strict non-negative integer parse (rejects empty / trailing junk).
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// parse_u64 into `out` when the value lies in [lo, hi] (`hi` must fit T);
/// false, with `out` untouched, otherwise. Command-line numbers go through
/// it, so junk, signs and out-of-range values are refused, not misread.
template <std::integral T>
bool parse_bounded(std::string_view s, std::uint64_t lo, std::uint64_t hi,
                   T& out) {
  const std::optional<std::uint64_t> v = parse_u64(s);
  if (!v || *v < lo || *v > hi) return false;
  out = static_cast<T>(*v);
  return true;
}

/// printf-style formatting into std::string. Formats once into a stack
/// buffer; only output longer than that buffer takes a second pass. Per-cell
/// code uses the appenders below instead, which never reach printf.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Appends the decimal form of `v` (printf "%d"/"%u"/"%zu"/"%llu").
template <std::integral T>
void append_decimal(std::string& out, T v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// The number whose hex digits are `v`'s decimal digits (12 -> 0x12): the
/// value an IPv6 group written as the decimal text of `v` parses to. Exact
/// for v <= 9999, the values whose text fits one group.
constexpr std::uint16_t decimal_digits_as_hex(unsigned v) {
  unsigned out = 0;
  for (unsigned shift = 0; v != 0; v /= 10, shift += 4) out |= (v % 10) << shift;
  return static_cast<std::uint16_t>(out);
}

/// Appends `s` left-aligned in a column of `width` bytes (printf "%-*s":
/// longer text is never cut).
inline void append_padded(std::string& out, std::string_view s,
                          std::size_t width) {
  out += s;
  if (s.size() < width) out.append(width - s.size(), ' ');
}

namespace strings_detail {
inline std::size_t piece_size(std::string_view s) { return s.size(); }
inline std::size_t piece_size(char) { return 1; }
template <std::integral T>
  requires(!std::same_as<T, char> && !std::same_as<T, bool>)
std::size_t piece_size(T v) {
  char buf[24];
  return static_cast<std::size_t>(std::to_chars(buf, buf + sizeof buf, v).ptr -
                                  buf);
}

inline void append_piece(std::string& out, std::string_view s) { out += s; }
inline void append_piece(std::string& out, char c) { out += c; }
template <std::integral T>
  requires(!std::same_as<T, char> && !std::same_as<T, bool>)
void append_piece(std::string& out, T v) {
  append_decimal(out, v);
}
}  // namespace strings_detail

/// Appends each part in order: text (anything a std::string_view converts
/// from), single chars, and integers in decimal. Grows `out` at most once.
template <typename... Parts>
void str_append(std::string& out, const Parts&... parts) {
  out.reserve((out.size() + ... + strings_detail::piece_size(parts)));
  (strings_detail::append_piece(out, parts), ...);
}

/// str_append into a new string.
template <typename... Parts>
std::string str_cat(const Parts&... parts) {
  std::string out;
  str_append(out, parts...);
  return out;
}

}  // namespace lazyeye
