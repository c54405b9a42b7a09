#include "simnet/ip.h"

#include <charconv>
#include <stdexcept>

#include "util/strings.h"

namespace lazyeye::simnet {

// ---------------------------------------------------------------- IPv4 ----

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::uint32_t value = 0;
  int fields = 0;
  const bool ok = lazyeye::for_each_split(text, '.', [&](std::string_view p) {
    if (++fields > 4 || p.empty() || p.size() > 3) return false;
    const auto v = lazyeye::parse_u64(p);
    if (!v || *v > 255) return false;
    value = (value << 8) | static_cast<std::uint32_t>(*v);
    return true;
  });
  if (!ok || fields != 4) return std::nullopt;
  return Ipv4Address{value};
}

std::string Ipv4Address::to_string() const {
  char text[kMaxText];
  return {text, write(text)};
}

char* Ipv4Address::write(char* out) const {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out = std::to_chars(out, out + 3, (value >> shift) & 0xffu).ptr;
    if (shift > 0) *out++ = '.';
  }
  return out;
}

// ---------------------------------------------------------------- IPv6 ----

std::uint16_t Ipv6Address::group(int i) const {
  return static_cast<std::uint16_t>((bytes[static_cast<std::size_t>(i) * 2]
                                     << 8) |
                                    bytes[static_cast<std::size_t>(i) * 2 + 1]);
}

void Ipv6Address::set_group(int i, std::uint16_t v) {
  bytes[static_cast<std::size_t>(i) * 2] = static_cast<std::uint8_t>(v >> 8);
  bytes[static_cast<std::size_t>(i) * 2 + 1] = static_cast<std::uint8_t>(v);
}

namespace {

std::optional<std::uint16_t> parse_hextet(std::string_view s) {
  if (s.empty() || s.size() > 4) return std::nullopt;
  std::uint32_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return static_cast<std::uint16_t>(v);
}

}  // namespace

std::optional<Ipv6Address> Ipv6Address::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;

  // Split on "::" (at most one occurrence).
  std::string_view head = text;
  std::string_view tail;
  bool has_gap = false;
  if (const auto pos = text.find("::"); pos != std::string_view::npos) {
    if (text.find("::", pos + 1) != std::string_view::npos) {
      return std::nullopt;  // second "::"
    }
    has_gap = true;
    head = text.substr(0, pos);
    tail = text.substr(pos + 2);
  }

  // Fixed-size group scratch: a literal has at most 8 hextets per side.
  struct Side {
    std::uint16_t groups[8];
    std::size_t count = 0;
  };
  auto parse_side = [](std::string_view side, Side& out) -> bool {
    if (side.empty()) return true;
    return lazyeye::for_each_split(side, ':', [&](std::string_view part) {
      if (out.count >= 8) return false;
      const auto v = parse_hextet(part);
      if (!v) return false;
      out.groups[out.count++] = *v;
      return true;
    });
  };

  Side front;
  Side back;
  if (!parse_side(head, front) || !parse_side(tail, back)) return std::nullopt;

  const std::size_t total = front.count + back.count;
  if (has_gap) {
    if (total >= 8) return std::nullopt;  // "::" must cover >= 1 group
  } else if (total != 8) {
    return std::nullopt;
  }

  Ipv6Address addr;
  int g = 0;
  for (std::size_t i = 0; i < front.count; ++i) addr.set_group(g++, front.groups[i]);
  g = 8 - static_cast<int>(back.count);
  for (std::size_t i = 0; i < back.count; ++i) addr.set_group(g++, back.groups[i]);
  return addr;
}

std::string Ipv6Address::to_string() const {
  char text[kMaxText];
  return {text, write(text)};
}

char* Ipv6Address::write(char* out) const {
  // RFC 5952: compress the longest run of zero groups (>= 2) with "::"; the
  // leftmost run wins a tie.
  int best_start = -1;
  int best_len = 0;
  for (int i = 0; i < 8;) {
    if (group(i) != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && group(j) == 0) ++j;
    if (j - i > best_len) {
      best_len = j - i;
      best_start = i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  for (int i = 0; i < 8; ++i) {
    if (i == best_start) {
      *out++ = ':';
      *out++ = ':';
      i += best_len - 1;
      continue;
    }
    if (i > 0 && i != best_start + best_len) *out++ = ':';
    out = std::to_chars(out, out + 4, group(i), 16).ptr;
  }
  return out;
}

// ----------------------------------------------------------- IpAddress ----

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    if (const auto v6 = Ipv6Address::parse(text)) return IpAddress{*v6};
    return std::nullopt;
  }
  if (const auto v4 = Ipv4Address::parse(text)) return IpAddress{*v4};
  return std::nullopt;
}

IpAddress IpAddress::must_parse(std::string_view text) {
  if (const auto a = parse(text)) return *a;
  throw std::invalid_argument("invalid IP address literal: " +
                              std::string{text});
}

std::string IpAddress::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void IpAddress::append_to(std::string& out) const {
  char text[kMaxText];
  out.append(text, write(text));
}

char* IpAddress::write(char* out) const {
  return is_v4() ? v4_.write(out) : v6_.write(out);
}

std::size_t IpAddress::hash() const {
  std::uint64_t h = is_v4() ? 0x9e3779b97f4a7c15ULL : 0xc2b2ae3d27d4eb4fULL;
  if (is_v4()) {
    h ^= v4_.value;
    h *= 0x100000001b3ULL;
  } else {
    for (const std::uint8_t b : v6_.bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return static_cast<std::size_t>(h);
}

std::string Endpoint::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Endpoint::append_to(std::string& out) const {
  char text[kMaxText];
  out.append(text, write(text));
}

char* Endpoint::write(char* out) const {
  if (addr.is_v6()) {
    *out++ = '[';
    out = addr.write(out);
    *out++ = ']';
  } else {
    out = addr.write(out);
  }
  *out++ = ':';
  return std::to_chars(out, out + 5, port).ptr;
}

}  // namespace lazyeye::simnet
