// DNS domain names: label sequences with RFC 1035 wire encoding, including
// message compression (0xC0 pointers) on decode and encode.
//
// A name is stored as its canonical wire form: lower-cased (DNS comparisons
// are case-insensitive), uncompressed, without the terminating root byte
// ("\3www\7example\3com"), beside a label count. The root name is zero
// bytes. Equality and ordering compare those bytes, then the label count;
// ordering is therefore byte order, which no caller observes (maps keyed by
// names are only ever looked up, never listed). Every name fits RFC 1035
// §2.3.4's bound: at most 255 wire octets counting the root byte, labels of
// at most 63 octets.
//
// Storage: up to kInlineBytes (53) wire bytes live inside the object, so
// copying, assigning or decoding the names the lab serves (16-35 wire bytes,
// past libstdc++'s 15-byte small-string buffer) never touches the heap. A
// longer name spills to a heap block that the object keeps: a reused name
// (a scratch message's, a CNAME cursor) grows once and then holds any name
// that fits. Where the bytes live follows from their length alone. The
// inline capacity is what is left of 64 bytes beside the block pointer and
// the size/count bytes; 64 is the cap because a ResourceRecord carries up
// to three names (owner plus SOA's two), and a fresh decode of minimal
// 11-byte records must stay under cell_alloc_test's 24 bytes of allocation
// per wire byte.
//
// Compression state for one message lives in a NameCompressor: a flat list
// of (label-aligned wire suffix, offset) entries whose lookup is a length
// check plus memcmp. A compressor is clear()-able scratch, so hot senders
// reuse one across messages.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/wire.h"

namespace lazyeye::dns {

/// Offsets of already-encoded name suffixes, used for compression on encode.
/// A suffix is the uncompressed wire form of a name from one of its label
/// boundaries to its end (root byte excluded), viewed inside the DnsName
/// handed to DnsName::encode(); that name must stay alive until the message
/// is fully encoded (it always is: the DnsMessage outlives its
/// serialisation). clear() keeps the entry storage, so steady-state encoding
/// records suffixes without allocating.
class NameCompressor {
 public:
  void clear() { entries_.clear(); }

  /// Offset of a previously recorded suffix with exactly these wire bytes,
  /// earliest recording first.
  std::optional<std::uint16_t> find(std::string_view suffix) const;

  /// Records that `suffix` was encoded at `offset`.
  void record(std::string_view suffix, std::uint16_t offset) {
    entries_.push_back(Entry{suffix, offset});
  }

 private:
  struct Entry {
    std::string_view suffix;
    std::uint16_t offset;
  };
  std::vector<Entry> entries_;
};

class DnsName {
 public:
  /// Wire bytes (root byte excluded) stored without a heap block.
  static constexpr std::size_t kInlineBytes = 53;

  DnsName() = default;  // root
  DnsName(const DnsName& other) { copy_from(other); }
  DnsName(DnsName&& other) noexcept;
  DnsName& operator=(const DnsName& other);
  DnsName& operator=(DnsName&& other) noexcept;

  /// Parses dotted text ("www.example.com", trailing dot optional).
  /// Enforces label <= 63 octets and total wire length <= 255.
  static Result<DnsName> from_string(std::string_view text);

  /// from_string or throws std::invalid_argument — for literals.
  static DnsName must_parse(std::string_view text);

  /// Dotted form; "." for the root name.
  std::string to_string() const;

  bool is_root() const { return count_ == 0; }
  std::size_t label_count() const { return count_; }

  /// Invokes `fn(label)` with each label as a std::string_view, leftmost
  /// first; never for the root name.
  template <typename Fn>
  void for_each_label(Fn&& fn) const {
    const std::string_view bytes = view();
    for (std::size_t pos = 0; pos < bytes.size();) {
      const std::size_t len = static_cast<std::uint8_t>(bytes[pos]);
      fn(bytes.substr(pos + 1, len));
      pos += 1 + len;
    }
  }

  /// Wire length of the encoded name without compression.
  std::size_t wire_length() const { return size_ + 1u; }

  /// True if this name equals `ancestor` or is below it (label-aligned: a
  /// byte suffix that starts inside a label does not count).
  bool is_subdomain_of(const DnsName& ancestor) const;

  /// New name with `label` prepended (leftmost). Throws
  /// std::invalid_argument past 63 label or 255 name octets.
  DnsName prepend(std::string_view label) const;

  /// Concatenation: this name's labels followed by `suffix`'s. Throws
  /// std::invalid_argument past 255 name octets.
  DnsName concat(const DnsName& suffix) const;

  /// Makes this name `src` with its first `skip` labels removed, reusing
  /// this name's storage (no allocation once warm). skip must be
  /// <= src.label_count().
  void assign_tail(const DnsName& src, std::size_t skip);

  /// Appends the wire form to `out`, whose start is the message start. If
  /// `compression` is non-null, uses/records pointer targets (offsets must
  /// fit 14 bits to be recorded); the name must then outlive the
  /// compressor's current message.
  void encode(std::vector<std::uint8_t>& out,
              NameCompressor* compression) const;

  /// Decodes into `out` in one pass over the labels, following compression
  /// pointers (the jump count is capped to defeat pointer loops): the
  /// lower-cased wire bytes are gathered on the stack and stored with a
  /// single copy, so a name that fits inline decodes without allocating. On
  /// failure marks the reader bad and leaves `out` the root name.
  static void decode_into(wire::Reader& r, DnsName& out);

  /// Wire bytes, then label count.
  std::strong_ordering operator<=>(const DnsName& other) const {
    if (const auto order = view() <=> other.view(); order != 0) return order;
    return count_ <=> other.count_;
  }
  bool operator==(const DnsName& other) const {
    return size_ == other.size_ && count_ == other.count_ &&
           view() == other.view();
  }

 private:
  const char* data() const {
    return size_ > kInlineBytes ? heap_.get() : inline_;
  }
  std::string_view view() const { return {data(), size_}; }

  /// Replaces the name with `size` wire bytes holding `count` labels;
  /// `bytes` may point into this name's own storage.
  void assign(const char* bytes, std::size_t size, std::size_t count);

  /// Makes this name a copy of `other` (which is not this name).
  void copy_from(const DnsName& other);

  /// Byte offset of label `index` (size_ for index == count_).
  std::size_t label_offset(std::size_t index) const;

  // Used only while size_ > kInlineBytes; kept across shorter assignments.
  std::unique_ptr<char[]> heap_;
  std::uint8_t heap_capacity_ = 0;
  std::uint8_t size_ = 0;  // wire bytes without the root byte (<= 254)
  std::uint8_t count_ = 0;
  char inline_[kInlineBytes]{};
};

}  // namespace lazyeye::dns
