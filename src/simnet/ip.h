// IP address model: IPv4, IPv6, family-erased IpAddress, Endpoint.
//
// Parsing/formatting follow RFC 4291 text forms; IPv6 output uses the RFC 5952
// canonical form (lowercase hex, longest zero run compressed to "::").
// Text is written digit by digit without printf; every to_string() has an
// append_to() twin that writes into an existing string.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace lazyeye::simnet {

enum class Family : std::uint8_t { kIpv4, kIpv6 };

constexpr const char* family_name(Family f) {
  return f == Family::kIpv4 ? "IPv4" : "IPv6";
}
constexpr Family other_family(Family f) {
  return f == Family::kIpv4 ? Family::kIpv6 : Family::kIpv4;
}

struct Ipv4Address {
  std::uint32_t value = 0;  // host order; 0x01020304 == 1.2.3.4

  static std::optional<Ipv4Address> parse(std::string_view text);
  std::string to_string() const;
  void append_to(std::string& out) const;

  auto operator<=>(const Ipv4Address&) const = default;
};

struct Ipv6Address {
  std::array<std::uint8_t, 16> bytes{};

  static std::optional<Ipv6Address> parse(std::string_view text);
  std::string to_string() const;
  void append_to(std::string& out) const;

  /// Hextet accessors (group i of 8, big-endian).
  std::uint16_t group(int i) const;
  void set_group(int i, std::uint16_t v);

  auto operator<=>(const Ipv6Address&) const = default;
};

/// Family-erased address.
class IpAddress {
 public:
  IpAddress() : addr_{Ipv4Address{}} {}
  IpAddress(Ipv4Address a) : addr_{a} {}  // NOLINT(google-explicit-constructor)
  IpAddress(Ipv6Address a) : addr_{a} {}  // NOLINT(google-explicit-constructor)

  /// Parses either family from text.
  static std::optional<IpAddress> parse(std::string_view text);

  /// Parses or throws std::invalid_argument — for literals in code/tests.
  static IpAddress must_parse(std::string_view text);

  Family family() const {
    return std::holds_alternative<Ipv4Address>(addr_) ? Family::kIpv4
                                                      : Family::kIpv6;
  }
  bool is_v4() const { return family() == Family::kIpv4; }
  bool is_v6() const { return family() == Family::kIpv6; }

  const Ipv4Address& v4() const { return std::get<Ipv4Address>(addr_); }
  const Ipv6Address& v6() const { return std::get<Ipv6Address>(addr_); }

  std::string to_string() const;
  void append_to(std::string& out) const;

  auto operator<=>(const IpAddress&) const = default;

  /// Stable hash for unordered containers.
  std::size_t hash() const;

 private:
  std::variant<Ipv4Address, Ipv6Address> addr_;
};

struct Endpoint {
  IpAddress addr;
  std::uint16_t port = 0;

  std::string to_string() const;  // "1.2.3.4:80" / "[2001:db8::1]:80"
  void append_to(std::string& out) const;
  auto operator<=>(const Endpoint&) const = default;
};

}  // namespace lazyeye::simnet

template <>
struct std::hash<lazyeye::simnet::IpAddress> {
  std::size_t operator()(const lazyeye::simnet::IpAddress& a) const {
    return a.hash();
  }
};
