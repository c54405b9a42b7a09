// Big-endian wire primitives: the repo's one byte codec. DNS packets, the
// campaign journal, and the conformance record, schedule and hunt-state
// codecs all read and write through it. The put_* writers append to a
// std::string (journal payloads and corpus entries travel as strings) or a
// std::vector<std::uint8_t> (packet payloads); Reader reads either.
//
// Reader is forgiving in shape (`ok` latches false on underrun instead of
// throwing) so decoders can read a whole struct and validate once at the
// end, including the exact-length check that rejects trailing garbage.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lazyeye::wire {

/// The two buffer types the writers append to.
template <typename Out>
concept ByteBuffer = std::same_as<Out, std::string> ||
                     std::same_as<Out, std::vector<std::uint8_t>>;

namespace detail {

/// Appends `v` as sizeof(T) big-endian bytes.
template <typename T, ByteBuffer Out>
void put_be(Out& out, T v) {
  for (int shift = 8 * (static_cast<int>(sizeof(T)) - 1); shift >= 0;
       shift -= 8) {
    out.push_back(static_cast<typename Out::value_type>((v >> shift) & 0xFF));
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

template <ByteBuffer Out>
void put_u8(Out& out, std::uint8_t v) { detail::put_be(out, v); }
template <ByteBuffer Out>
void put_u16(Out& out, std::uint16_t v) { detail::put_be(out, v); }
template <ByteBuffer Out>
void put_u32(Out& out, std::uint32_t v) { detail::put_be(out, v); }
template <ByteBuffer Out>
void put_u64(Out& out, std::uint64_t v) { detail::put_be(out, v); }

/// Appends raw bytes, without a length prefix.
template <ByteBuffer Out>
void put_bytes(Out& out, std::string_view bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}
template <ByteBuffer Out>
void put_bytes(Out& out, std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

/// A u32 length prefix followed by the bytes (see Reader::str).
template <ByteBuffer Out>
void put_str(Out& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  put_bytes(out, s);
}

/// Overwrites the u16 written at `offset` (e.g. a DNS RDLENGTH placeholder).
template <ByteBuffer Out>
void set_u16(Out& out, std::size_t offset, std::uint16_t v) {
  out.at(offset) = static_cast<typename Out::value_type>(v >> 8);
  out.at(offset + 1) = static_cast<typename Out::value_type>(v & 0xFF);
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
  explicit Reader(std::string_view bytes) : data{bytes} {}
  explicit Reader(std::span<const std::uint8_t> bytes)
      : data{reinterpret_cast<const char*>(bytes.data()), bytes.size()} {}

  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }

  /// The next `n` bytes without copying, or an empty view (and ok = false)
  /// on underrun.
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
  std::string str() { return std::string{str_view()}; }

  /// str() without copying: a view into the buffer.
  std::string_view str_view() {
    const std::uint32_t len = u32();
    return view(len);
  }

  void skip(std::size_t n) { view(n); }

  /// Moves the cursor to absolute offset `at` (DNS compression pointers);
  /// an offset past the end latches ok = false.
  void seek(std::size_t at) {
    if (at > data.size()) {
      ok = false;
    } else {
      pos = at;
    }
  }

  /// Unread bytes; 0 once a read has failed.
  std::size_t remaining() const { return ok ? data.size() - pos : 0; }

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
