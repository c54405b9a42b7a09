// DNS domain names: label sequences with RFC 1035 wire encoding, including
// message compression (0xC0 pointers) on decode and encode.
//
// Names are stored lowercase (DNS comparisons are case-insensitive) as a
// label vector without the root label; the root name has zero labels.
//
// Compression state for one message lives in a NameCompressor: a flat list
// of (name, label-suffix, offset) entries compared label-wise, replacing the
// old std::map<std::string, offset> whose per-suffix key strings dominated
// the encode path's allocations. A compressor is clear()-able scratch, so
// hot senders reuse one across messages.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/wire.h"

namespace lazyeye::dns {

class DnsName;

/// Offsets of already-encoded name suffixes, used for compression on encode.
/// Entries reference the DnsName objects handed to DnsName::encode(), which
/// must stay alive until the message is fully encoded (they always are: the
/// DnsMessage outlives its serialisation). clear() keeps the entry storage,
/// so steady-state encoding records suffixes without allocating.
class NameCompressor {
 public:
  void clear() { entries_.clear(); }

  /// Offset of a previously recorded suffix equal to `name[label_index..]`,
  /// earliest recording first (mirrors the old map's emplace semantics).
  std::optional<std::uint16_t> find(const DnsName& name,
                                    std::size_t label_index) const;

  /// Records that `name[label_index..]` was encoded at `offset`.
  void record(const DnsName& name, std::size_t label_index,
              std::uint16_t offset);

 private:
  struct Entry {
    const DnsName* name;
    std::uint32_t label_index;
    std::uint16_t offset;
  };
  std::vector<Entry> entries_;
};

class DnsName {
 public:
  DnsName() = default;  // root

  /// Parses dotted text ("www.example.com", trailing dot optional).
  /// Enforces label <= 63 octets and total wire length <= 255.
  static Result<DnsName> from_string(std::string_view text);

  /// from_string or throws std::invalid_argument — for literals.
  static DnsName must_parse(std::string_view text);

  /// Dotted form; "." for the root name.
  std::string to_string() const;

  bool is_root() const { return labels_.empty(); }
  std::size_t label_count() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }
  const std::string& label(std::size_t i) const { return labels_[i]; }

  /// Wire length of the encoded name without compression.
  std::size_t wire_length() const;

  /// True if this name equals `ancestor` or is below it.
  bool is_subdomain_of(const DnsName& ancestor) const;

  /// Name with the leftmost label removed; root stays root.
  DnsName parent() const;

  /// New name with `label` prepended (leftmost).
  DnsName prepend(std::string_view label) const;

  /// Concatenation: this.labels + suffix.labels.
  DnsName concat(const DnsName& suffix) const;

  /// Makes this name `src` with its first `skip` labels removed, reusing
  /// this name's label storage (no allocation once warm). skip must be
  /// <= src.label_count().
  void assign_tail(const DnsName& src, std::size_t skip);

  /// Appends the wire form to `out`, whose start is the message start. If
  /// `compression` is non-null, uses/records pointer targets (offsets must
  /// fit 14 bits to be recorded); the name must then outlive the
  /// compressor's current message.
  void encode(std::vector<std::uint8_t>& out,
              NameCompressor* compression) const;

  /// Decodes from the reader (follows compression pointers; caps the jump
  /// count to defeat pointer loops). On failure marks the reader bad.
  static DnsName decode(wire::Reader& r);

  /// Decodes into `out`, reusing its label storage (vector capacity and the
  /// per-label string buffers). Steady-state message parsing with a scratch
  /// DnsMessage decodes names without allocating. On failure marks the
  /// reader bad and leaves `out` empty.
  static void decode_into(wire::Reader& r, DnsName& out);

  auto operator<=>(const DnsName&) const = default;

 private:
  std::vector<std::string> labels_;
};

}  // namespace lazyeye::dns
