// IP address model: IPv4, IPv6, family-erased IpAddress, Endpoint.
//
// IpAddress is a family tag over a union of the two address types: it is
// compared on every packet a host or netem rule matches, so equality and
// order are a tag test and one integer or 16-byte compare.
//
// Parsing/formatting follow RFC 4291 text forms; IPv6 output uses the RFC 5952
// canonical form (lowercase hex, longest zero run compressed to "::").
// Text is written digit by digit without printf: write() puts it into a
// caller's char buffer of the type's kMaxText bytes, and to_string() (and,
// on IpAddress and Endpoint, append_to() into an existing string) build on
// it.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>  // std::bad_variant_access

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

  /// "255.255.255.255".
  static constexpr std::size_t kMaxText = 15;

  static std::optional<Ipv4Address> parse(std::string_view text);
  std::string to_string() const;
  /// Writes the text at `out` (room for kMaxText bytes); returns its end.
  char* write(char* out) const;

  auto operator<=>(const Ipv4Address&) const = default;
};

struct Ipv6Address {
  std::array<std::uint8_t, 16> bytes{};

  /// Eight four-digit groups and seven colons.
  static constexpr std::size_t kMaxText = 39;

  static std::optional<Ipv6Address> parse(std::string_view text);
  std::string to_string() const;
  /// Writes the text at `out` (room for kMaxText bytes); returns its end.
  char* write(char* out) const;

  /// Hextet accessors (group i of 8, big-endian).
  std::uint16_t group(int i) const;
  void set_group(int i, std::uint16_t v);

  auto operator<=>(const Ipv6Address&) const = default;
};

/// Family-erased address. Orders IPv4 before IPv6, then by value within a
/// family: the order of the std::variant<Ipv4Address, Ipv6Address> it
/// replaced, which sorted containers keyed by address still observe.
class IpAddress {
 public:
  IpAddress() : v4_{} {}
  IpAddress(Ipv4Address a) : v4_{a} {}  // NOLINT(google-explicit-constructor)
  IpAddress(Ipv6Address a)  // NOLINT(google-explicit-constructor)
      : family_{Family::kIpv6}, v6_{a} {}

  /// Parses either family from text.
  static std::optional<IpAddress> parse(std::string_view text);

  /// Parses or throws std::invalid_argument — for literals in code/tests.
  static IpAddress must_parse(std::string_view text);

  Family family() const { return family_; }
  bool is_v4() const { return family_ == Family::kIpv4; }
  bool is_v6() const { return family_ == Family::kIpv6; }

  /// The address of the named family; std::bad_variant_access on the other.
  const Ipv4Address& v4() const {
    if (!is_v4()) throw std::bad_variant_access{};
    return v4_;
  }
  const Ipv6Address& v6() const {
    if (!is_v6()) throw std::bad_variant_access{};
    return v6_;
  }

  static constexpr std::size_t kMaxText = Ipv6Address::kMaxText;

  std::string to_string() const;
  void append_to(std::string& out) const;
  /// Writes the text at `out` (room for kMaxText bytes); returns its end.
  char* write(char* out) const;

  friend bool operator==(const IpAddress& a, const IpAddress& b) {
    if (a.family_ != b.family_) return false;
    return a.is_v4() ? a.v4_ == b.v4_ : a.compare_v6(b) == 0;
  }
  friend std::strong_ordering operator<=>(const IpAddress& a,
                                          const IpAddress& b) {
    if (a.family_ != b.family_) return a.family_ <=> b.family_;
    return a.is_v4() ? a.v4_ <=> b.v4_ : a.compare_v6(b) <=> 0;
  }

  /// Stable hash for unordered containers.
  std::size_t hash() const;

 private:
  /// memcmp of the two IPv6 byte strings: their lexicographic order.
  int compare_v6(const IpAddress& other) const {
    return std::memcmp(v6_.bytes.data(), other.v6_.bytes.data(),
                       v6_.bytes.size());
  }

  Family family_ = Family::kIpv4;
  union {
    Ipv4Address v4_;
    Ipv6Address v6_;
  };
};

struct Endpoint {
  IpAddress addr;
  std::uint16_t port = 0;

  /// "[", the address, "]:" and five port digits.
  static constexpr std::size_t kMaxText = IpAddress::kMaxText + 8;

  std::string to_string() const;  // "1.2.3.4:80" / "[2001:db8::1]:80"
  void append_to(std::string& out) const;
  /// Writes the text at `out` (room for kMaxText bytes); returns its end.
  char* write(char* out) const;
  auto operator<=>(const Endpoint&) const = default;
};

}  // namespace lazyeye::simnet

template <>
struct std::hash<lazyeye::simnet::IpAddress> {
  std::size_t operator()(const lazyeye::simnet::IpAddress& a) const {
    return a.hash();
  }
};
