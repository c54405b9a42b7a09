#include "dns/name.h"

#include <cstring>
#include <stdexcept>

#include "util/strings.h"

namespace lazyeye::dns {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
constexpr int kMaxPointerJumps = 32;

// See the storage paragraph in name.h.
static_assert(sizeof(DnsName) <= 64);

char lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Writes the length byte of label `raw`, then `raw` lower-cased, at `dst`;
/// returns the end of what it wrote.
char* put_label(char* dst, std::string_view raw) {
  *dst++ = static_cast<char>(raw.size());
  for (const char c : raw) *dst++ = lower(c);
  return dst;
}

/// Lower-cases the ASCII letters of `size` bytes at `bytes`, eight at a
/// time. Wire-form names may pass whole: their length bytes (1-63) are no
/// letters.
void lower_in_place(char* bytes, std::size_t size) {
  constexpr std::uint64_t kEach = 0x0101010101010101u;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t x = 0;
    std::memcpy(&x, bytes + i, 8);
    // Per byte, without carries between bytes: the high bit of `from_a` is
    // set where the low seven bits are >= 'A', that of `past_z` where they
    // are > 'Z'; ~x keeps ASCII bytes only. Letters get 0x20 added.
    const std::uint64_t low7 = x & (0x7F * kEach);
    const std::uint64_t from_a = low7 + (0x80 - 'A') * kEach;
    const std::uint64_t past_z = low7 + (0x7F - 'Z') * kEach;
    const std::uint64_t upper = from_a & ~past_z & ~x & (0x80 * kEach);
    x |= upper >> 2;
    std::memcpy(bytes + i, &x, 8);
  }
  for (; i < size; ++i) bytes[i] = lower(bytes[i]);
}
}  // namespace

DnsName::DnsName(DnsName&& other) noexcept
    : heap_{std::move(other.heap_)},
      heap_capacity_{other.heap_capacity_},
      size_{other.size_},
      count_{other.count_} {
  if (size_ <= kInlineBytes) std::memcpy(inline_, other.inline_, kInlineBytes);
  other.heap_capacity_ = 0;
  other.size_ = 0;
  other.count_ = 0;
}

DnsName& DnsName::operator=(const DnsName& other) {
  if (this != &other) copy_from(other);
  return *this;
}

DnsName& DnsName::operator=(DnsName&& other) noexcept {
  if (this == &other) return *this;
  if (other.size_ > kInlineBytes) {
    // Trade blocks: `other` keeps this name's block for its next name.
    std::swap(heap_, other.heap_);
    std::swap(heap_capacity_, other.heap_capacity_);
  } else {
    std::memcpy(inline_, other.inline_, kInlineBytes);
  }
  size_ = other.size_;
  count_ = other.count_;
  other.size_ = 0;
  other.count_ = 0;
  return *this;
}

void DnsName::copy_from(const DnsName& other) {
  if (other.size_ > kInlineBytes) {
    return assign(other.heap_.get(), other.size_, other.count_);
  }
  // The whole inline array: a fixed-size copy is a few register moves, not
  // a library call. Bytes past size_ are never read.
  std::memcpy(inline_, other.inline_, kInlineBytes);
  size_ = other.size_;
  count_ = other.count_;
}

void DnsName::assign(const char* bytes, std::size_t size, std::size_t count) {
  char* dst = inline_;
  if (size > kInlineBytes) {
    if (size > heap_capacity_) {
      // `bytes` never lives in the block being replaced: a name only spills
      // past the inline bytes into a block at least as large as its size.
      heap_ = std::make_unique_for_overwrite<char[]>(size);
      heap_capacity_ = static_cast<std::uint8_t>(size);
    }
    dst = heap_.get();
  }
  std::memmove(dst, bytes, size);
  size_ = static_cast<std::uint8_t>(size);
  count_ = static_cast<std::uint8_t>(count);
}

Result<DnsName> DnsName::from_string(std::string_view text) {
  DnsName name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);
  char buf[kMaxName];
  char* end = buf;
  std::size_t count = 0;
  bool too_long = false;
  const char* error = nullptr;
  lazyeye::for_each_split(text, '.', [&](std::string_view raw) {
    if (raw.empty()) {
      error = "empty label in name";
      return false;
    }
    if (raw.size() > kMaxLabel) {
      error = "label longer than 63 octets";
      return false;
    }
    // Past 255 octets keep validating labels (a bad label is the error
    // reported) but stop writing them.
    too_long = too_long ||
               static_cast<std::size_t>(end - buf) + 2 + raw.size() > kMaxName;
    if (!too_long) end = put_label(end, raw);
    ++count;
    return true;
  });
  if (error != nullptr) {
    std::string detail{error};
    detail.append(": ");
    detail.append(text);
    return Result<DnsName>::failure(std::move(detail));
  }
  if (too_long) return Result<DnsName>::failure("name longer than 255 octets");
  // <= 127 labels within 255 octets.
  name.assign(buf, static_cast<std::size_t>(end - buf), count);
  return name;
}

DnsName DnsName::must_parse(std::string_view text) {
  auto r = from_string(text);
  if (!r.ok()) throw std::invalid_argument(r.error());
  return std::move(r).value();
}

std::string DnsName::to_string() const {
  if (is_root()) return ".";
  std::string out;
  out.reserve(size_);
  for_each_label([&out](std::string_view label) {
    if (!out.empty()) out.push_back('.');
    out.append(label);
  });
  return out;
}

std::size_t DnsName::label_offset(std::size_t index) const {
  std::size_t pos = 0;
  const char* bytes = data();
  for (; index > 0; --index) pos += 1 + static_cast<std::uint8_t>(bytes[pos]);
  return pos;
}

bool DnsName::is_subdomain_of(const DnsName& ancestor) const {
  if (ancestor.count_ > count_) return false;
  // Compare from the label boundary where `ancestor` would start, never from
  // a raw byte suffix: the one-label name "x\7example\3com" ends with the
  // wire bytes of example.com but is not below it.
  return view().substr(label_offset(count_ - ancestor.count_)) ==
         ancestor.view();
}

DnsName DnsName::prepend(std::string_view label) const {
  if (label.size() > kMaxLabel || 2 + label.size() + size_ > kMaxName) {
    throw std::invalid_argument("prepend: label or name too long");
  }
  char buf[kMaxName];
  char* end = put_label(buf, label);
  std::memcpy(end, data(), size_);
  DnsName p;
  p.assign(buf, static_cast<std::size_t>(end - buf) + size_, count_ + 1u);
  return p;
}

void DnsName::assign_tail(const DnsName& src, std::size_t skip) {
  const std::size_t offset = src.label_offset(skip);
  assign(src.data() + offset, src.size_ - offset, src.count_ - skip);
}

DnsName DnsName::concat(const DnsName& suffix) const {
  if (1u + size_ + suffix.size_ > kMaxName) {
    throw std::invalid_argument("concat: name longer than 255 octets");
  }
  char buf[kMaxName];
  std::memcpy(buf, data(), size_);
  std::memcpy(buf + size_, suffix.data(), suffix.size_);
  DnsName p;
  p.assign(buf, size_ + suffix.size_, count_ + suffix.count_);
  return p;
}

std::optional<std::uint16_t> NameCompressor::find(
    std::string_view suffix) const {
  // First match wins: record() never overwrites, so scanning in insertion
  // order keeps the earliest offset. Equal wire bytes from label boundaries
  // are equal label sequences.
  for (const Entry& e : entries_) {
    if (e.suffix.size() == suffix.size() &&
        std::memcmp(e.suffix.data(), suffix.data(), suffix.size()) == 0) {
      return e.offset;
    }
  }
  return std::nullopt;
}

void DnsName::encode(std::vector<std::uint8_t>& out,
                     NameCompressor* compression) const {
  if (compression == nullptr) {
    wire::put_bytes(out, view());
    wire::put_u8(out, 0);  // root
    return;
  }
  // Walk the label boundaries left to right, recording each suffix, until
  // one was encoded before; the labels up to there go out in one piece,
  // then a pointer to that suffix (or the root byte).
  const std::string_view bytes = view();
  const std::size_t start = out.size();
  std::optional<std::uint16_t> pointer;
  std::size_t pos = 0;
  for (; pos < bytes.size(); pos += 1 + static_cast<std::uint8_t>(bytes[pos])) {
    const std::string_view suffix = bytes.substr(pos);
    pointer = compression->find(suffix);
    if (pointer) break;
    if (start + pos <= 0x3FFF) {
      compression->record(suffix, static_cast<std::uint16_t>(start + pos));
    }
  }
  wire::put_bytes(out, bytes.substr(0, pos));
  if (pointer) {
    wire::put_u16(out, static_cast<std::uint16_t>(0xC000 | *pointer));
  } else {
    wire::put_u8(out, 0);  // root
  }
}

void DnsName::decode_into(wire::Reader& r, DnsName& out) {
  // One pass straight over the reader's bytes: every read is bounds-checked
  // against `size` here instead of through the Reader's latch. The labels
  // between two pointers are contiguous wire-form bytes, so each such run is
  // copied into `buf` whole; the name is then lower-cased there and stored
  // with one more copy.
  const std::string_view wire = r.data;
  const std::size_t size = wire.size();
  std::size_t pos = r.pos;  // the next length byte
  std::size_t run = pos;    // start of the labels not yet copied to buf
  std::size_t resume = 0;   // position after the first pointer; 0 = none
  int jumps = 0;
  char buf[kMaxName];
  std::size_t used = 0;  // label bytes walked; the wire length is used + 1
  std::size_t copied = 0;
  std::size_t count = 0;

  const auto fail = [&] {
    r.ok = false;
    out.size_ = 0;
    out.count_ = 0;
  };
  const auto copy_run = [&] {
    std::memcpy(buf + copied, wire.data() + run, pos - run);
    copied += pos - run;
  };
  if (!r.ok) return fail();

  for (;;) {
    if (pos >= size) return fail();
    const auto len = static_cast<std::uint8_t>(wire[pos]);
    if ((len & 0xC0) == 0xC0) {
      if (pos + 1 >= size || ++jumps > kMaxPointerJumps) return fail();
      copy_run();
      if (resume == 0) resume = pos + 2;
      pos = static_cast<std::size_t>((len & 0x3F) << 8 |
                                     static_cast<std::uint8_t>(wire[pos + 1]));
      if (pos > size) return fail();
      run = pos;
      continue;
    }
    if ((len & 0xC0) != 0) return fail();  // 0x40/0x80 label types
    if (len == 0) break;
    // The label, its length byte and the root byte must fit 255 octets.
    if (used + 1 + len + 1 > kMaxName || size - pos - 1 < len) return fail();
    used += 1 + len;
    pos += 1 + len;
    ++count;
  }
  copy_run();
  lower_in_place(buf, used);
  r.pos = resume != 0 ? resume : pos + 1;
  out.assign(buf, used, count);
}

}  // namespace lazyeye::dns
