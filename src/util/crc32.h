// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the journal's
// record-framing checksum.
//
// Header-only and constexpr-table-driven so the campaign journal, the shard
// merge step, and the tests all agree on one implementation. The hunt
// journals one ~10 KB record per candidate, so the update loop is
// slicing-by-8: eight table lookups fold eight input bytes per step instead
// of one lookup per byte, with the same polynomial and the same values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lazyeye::util {

namespace crc_detail {

/// Table k maps a byte to its CRC contribution k bytes further back: table
/// 0 is the classic bytewise table, table k extends table k-1 by one zero
/// byte.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr auto kCrc32Tables = make_crc32_tables();

/// Four bytes as a little-endian word (the reflected CRC's byte order).
constexpr std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace crc_detail

/// Incremental form: feed `crc32_init()` through `crc32_update` calls and
/// finish with `crc32_final` (standard init/xorout of ~0).
constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

constexpr std::uint32_t crc32_update(std::uint32_t state,
                                     const unsigned char* data,
                                     std::size_t size) {
  const auto& t = crc_detail::kCrc32Tables;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = state ^ crc_detail::load_le32(data);
    const std::uint32_t hi = crc_detail::load_le32(data + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    state = t[0][(state ^ *data) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte string.
inline std::uint32_t crc32(std::string_view data) {
  return crc32_final(crc32_update(
      crc32_init(), reinterpret_cast<const unsigned char*>(data.data()),
      data.size()));
}

}  // namespace lazyeye::util
