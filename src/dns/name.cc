#include "dns/name.h"

#include <cstring>
#include <stdexcept>

#include "util/strings.h"

namespace lazyeye::dns {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
constexpr int kMaxPointerJumps = 32;

/// Appends the length byte of label `raw`, then `raw` lower-cased.
void append_label(std::string& out, std::string_view raw) {
  const std::size_t at = out.size();
  out.resize(at + 1 + raw.size());
  char* dst = out.data() + at;
  *dst++ = static_cast<char>(raw.size());
  for (const char c : raw) {
    *dst++ = c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  }
}
}  // namespace

Result<DnsName> DnsName::from_string(std::string_view text) {
  DnsName name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);
  name.bytes_.reserve(text.size() + 1);
  std::size_t count = 0;
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
    append_label(name.bytes_, raw);
    ++count;
    return true;
  });
  if (error != nullptr) {
    std::string detail{error};
    detail.append(": ");
    detail.append(text);
    return Result<DnsName>::failure(std::move(detail));
  }
  if (name.wire_length() > kMaxName) {
    return Result<DnsName>::failure("name longer than 255 octets");
  }
  name.count_ = static_cast<std::uint8_t>(count);  // <= 127 within 255 octets
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
  out.reserve(bytes_.size());
  for_each_label([&out](std::string_view label) {
    if (!out.empty()) out.push_back('.');
    out.append(label);
  });
  return out;
}

std::size_t DnsName::label_offset(std::size_t index) const {
  std::size_t pos = 0;
  for (; index > 0; --index) pos += 1 + static_cast<std::uint8_t>(bytes_[pos]);
  return pos;
}

bool DnsName::is_subdomain_of(const DnsName& ancestor) const {
  if (ancestor.count_ > count_) return false;
  // Compare from the label boundary where `ancestor` would start, never from
  // a raw byte suffix: the one-label name "x\7example\3com" ends with the
  // wire bytes of example.com but is not below it.
  const std::string_view tail =
      std::string_view{bytes_}.substr(label_offset(count_ - ancestor.count_));
  return tail == ancestor.bytes_;
}

DnsName DnsName::parent() const {
  DnsName p;
  if (count_ > 1) p.assign_tail(*this, 1);
  return p;
}

DnsName DnsName::prepend(std::string_view label) const {
  DnsName p;
  p.bytes_.reserve(1 + label.size() + bytes_.size());
  append_label(p.bytes_, label);
  p.bytes_.append(bytes_);
  p.count_ = static_cast<std::uint8_t>(count_ + 1);
  return p;
}

void DnsName::assign_tail(const DnsName& src, std::size_t skip) {
  bytes_.assign(src.bytes_, src.label_offset(skip));
  count_ = static_cast<std::uint8_t>(src.count_ - skip);
}

DnsName DnsName::concat(const DnsName& suffix) const {
  DnsName p;
  p.bytes_.reserve(bytes_.size() + suffix.bytes_.size());
  p.bytes_.append(bytes_).append(suffix.bytes_);
  p.count_ = static_cast<std::uint8_t>(count_ + suffix.count_);
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
    wire::put_bytes(out, bytes_);
    wire::put_u8(out, 0);  // root
    return;
  }
  // Emit labels left to right; at each suffix, check for a prior occurrence.
  const std::string_view bytes{bytes_};
  for (std::size_t pos = 0; pos < bytes.size();) {
    const std::string_view suffix = bytes.substr(pos);
    if (const auto offset = compression->find(suffix)) {
      wire::put_u16(out, static_cast<std::uint16_t>(0xC000 | *offset));
      return;
    }
    if (out.size() <= 0x3FFF) {
      compression->record(suffix, static_cast<std::uint16_t>(out.size()));
    }
    const std::size_t end = pos + 1 + static_cast<std::uint8_t>(bytes[pos]);
    wire::put_bytes(out, bytes.substr(pos, end - pos));
    pos = end;
  }
  wire::put_u8(out, 0);  // root
}

DnsName DnsName::decode(wire::Reader& r) {
  DnsName name;
  decode_into(r, name);
  return name;
}

void DnsName::decode_into(wire::Reader& r, DnsName& out) {
  int jumps = 0;
  std::optional<std::size_t> resume;  // position after the first pointer
  std::size_t total = 1;              // the root byte
  std::size_t count = 0;
  out.bytes_.clear();
  out.count_ = 0;

  const auto fail = [&] { out.bytes_.clear(); };

  for (;;) {
    const std::uint8_t len = r.u8();
    if (!r.ok) return fail();
    if ((len & 0xC0) == 0xC0) {
      const std::uint8_t low = r.u8();
      if (!r.ok) return fail();
      if (++jumps > kMaxPointerJumps) {
        r.ok = false;
        return fail();
      }
      if (!resume) resume = r.pos;
      r.seek(static_cast<std::size_t>((len & 0x3F) << 8 | low));
      if (!r.ok) return fail();
      continue;
    }
    if ((len & 0xC0) != 0) {  // 0x40/0x80 label types are unsupported
      r.ok = false;
      return fail();
    }
    if (len == 0) break;
    total += 1 + len;
    if (total > kMaxName) {
      r.ok = false;
      return fail();
    }
    // Lower-case straight off the wire view into the reused buffer.
    const std::string_view raw = r.view(len);
    if (!r.ok) return fail();
    append_label(out.bytes_, raw);
    ++count;
  }
  out.count_ = static_cast<std::uint8_t>(count);

  if (resume) r.seek(*resume);
}

}  // namespace lazyeye::dns
