// Big-endian string-backed wire primitives shared by every string-framed
// codec: the campaign journal, SketchSink snapshots, and the conformance
// record, schedule and corpus codecs. Mirrors util/bytes.h, which is
// vector<uint8_t>-based — journal payloads and corpus entries travel as
// strings. Doubles travel as their IEEE bit patterns, so a decoded value is
// bit-identical to the encoded one.
//
// Reader is forgiving in shape (`ok` latches false on underrun instead of
// throwing) so decoders can read a whole struct and validate once at the
// end, including the exact-length check that rejects trailing garbage.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace lazyeye::wire {

namespace detail {

/// Appends `v` as sizeof(T) big-endian bytes.
template <typename T>
void put_be(std::string& out, T v) {
  for (int shift = 8 * (static_cast<int>(sizeof(T)) - 1); shift >= 0;
       shift -= 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

/// Reads sizeof(T) big-endian bytes at `at`; the caller bounds-checks.
template <typename T>
T get_be(std::string_view s, std::size_t at) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>((v << 8) | static_cast<unsigned char>(s[at + i]));
  }
  return v;
}

}  // namespace detail

inline void put_u8(std::string& out, std::uint8_t v) {
  detail::put_be(out, v);
}
inline void put_u16(std::string& out, std::uint16_t v) {
  detail::put_be(out, v);
}
inline void put_u32(std::string& out, std::uint32_t v) {
  detail::put_be(out, v);
}
inline void put_u64(std::string& out, std::uint64_t v) {
  detail::put_be(out, v);
}
inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

inline std::uint16_t get_u16(std::string_view s, std::size_t at) {
  return detail::get_be<std::uint16_t>(s, at);
}
inline std::uint32_t get_u32(std::string_view s, std::size_t at) {
  return detail::get_be<std::uint32_t>(s, at);
}
inline std::uint64_t get_u64(std::string_view s, std::size_t at) {
  return detail::get_be<std::uint64_t>(s, at);
}

struct Reader {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next `n` bytes, or an empty view (and ok = false) on underrun.
  std::string_view view(std::size_t n) {
    if (!ok || data.size() - pos < n) {
      ok = false;
      return {};
    }
    const std::string_view out = data.substr(pos, n);
    pos += n;
    return out;
  }

  /// A u32 length prefix followed by that many bytes (see put_str).
  std::string str() {
    const std::uint32_t len = u32();
    return std::string{view(len)};
  }

  /// True only when every read succeeded AND the buffer is fully consumed.
  bool exhausted() const { return ok && pos == data.size(); }

 private:
  template <typename T>
  T take() {
    if (!ok || data.size() - pos < sizeof(T)) {
      ok = false;
      return 0;
    }
    const T v = detail::get_be<T>(data, pos);
    pos += sizeof(T);
    return v;
  }
};

}  // namespace lazyeye::wire
