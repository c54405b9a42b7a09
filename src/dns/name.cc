#include "dns/name.h"

#include <stdexcept>

#include "util/strings.h"

namespace lazyeye::dns {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
constexpr int kMaxPointerJumps = 32;
}  // namespace

Result<DnsName> DnsName::from_string(std::string_view text) {
  DnsName name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);
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
    // Lowercase straight into the stored label: one string per label, no
    // split()/to_lower() intermediates.
    std::string& label = name.labels_.emplace_back();
    label.reserve(raw.size());
    for (const char c : raw) {
      label.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                           : c);
    }
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
  return name;
}

DnsName DnsName::must_parse(std::string_view text) {
  auto r = from_string(text);
  if (!r.ok()) throw std::invalid_argument(r.error());
  return std::move(r).value();
}

std::string DnsName::to_string() const {
  if (labels_.empty()) return ".";
  return lazyeye::join(labels_, ".");
}

std::size_t DnsName::wire_length() const {
  std::size_t n = 1;  // root length byte
  for (const auto& l : labels_) n += 1 + l.size();
  return n;
}

bool DnsName::is_subdomain_of(const DnsName& ancestor) const {
  if (ancestor.labels_.size() > labels_.size()) return false;
  const std::size_t offset = labels_.size() - ancestor.labels_.size();
  for (std::size_t i = 0; i < ancestor.labels_.size(); ++i) {
    if (labels_[offset + i] != ancestor.labels_[i]) return false;
  }
  return true;
}

DnsName DnsName::parent() const {
  DnsName p;
  if (labels_.size() <= 1) return p;
  p.labels_.assign(labels_.begin() + 1, labels_.end());
  return p;
}

DnsName DnsName::prepend(std::string_view label) const {
  DnsName p;
  p.labels_.reserve(labels_.size() + 1);
  p.labels_.push_back(lazyeye::to_lower(label));
  p.labels_.insert(p.labels_.end(), labels_.begin(), labels_.end());
  return p;
}

void DnsName::assign_tail(const DnsName& src, std::size_t skip) {
  // vector::assign copy-assigns over retained elements, so warm label
  // strings recycle their buffers. Self-assignment (src == *this) would
  // alias; callers never do that, and the skip==0 whole-copy case is safe
  // via operator= anyway.
  labels_.assign(src.labels_.begin() + static_cast<std::ptrdiff_t>(skip),
                 src.labels_.end());
}

DnsName DnsName::concat(const DnsName& suffix) const {
  DnsName p;
  p.labels_ = labels_;
  p.labels_.insert(p.labels_.end(), suffix.labels_.begin(),
                   suffix.labels_.end());
  return p;
}

std::optional<std::uint16_t> NameCompressor::find(
    const DnsName& name, std::size_t label_index) const {
  const auto& labels = name.labels();
  const std::size_t len = labels.size() - label_index;
  // First match wins: record() never overwrites (emplace semantics of the
  // old map), so scanning in insertion order reproduces its offsets.
  for (const Entry& e : entries_) {
    const auto& other = e.name->labels();
    if (other.size() - e.label_index != len) continue;
    bool equal = true;
    for (std::size_t i = 0; i < len; ++i) {
      if (labels[label_index + i] != other[e.label_index + i]) {
        equal = false;
        break;
      }
    }
    if (equal) return e.offset;
  }
  return std::nullopt;
}

void NameCompressor::record(const DnsName& name, std::size_t label_index,
                            std::uint16_t offset) {
  entries_.push_back(
      Entry{&name, static_cast<std::uint32_t>(label_index), offset});
}

void DnsName::encode(std::vector<std::uint8_t>& out,
                     NameCompressor* compression) const {
  // Emit labels left to right; at each suffix, check for a prior occurrence.
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (compression != nullptr) {
      if (const auto offset = compression->find(*this, i)) {
        wire::put_u16(out, static_cast<std::uint16_t>(0xC000 | *offset));
        return;
      }
      if (out.size() <= 0x3FFF) {
        compression->record(*this, i, static_cast<std::uint16_t>(out.size()));
      }
    }
    wire::put_u8(out, static_cast<std::uint8_t>(labels_[i].size()));
    wire::put_bytes(out, labels_[i]);
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
  std::size_t total = 0;
  std::size_t count = 0;  // labels written so far (slots below reused)

  const auto fail = [&] {
    out.labels_.clear();
  };

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
    // Lower-case straight off the wire view — no intermediate std::string
    // temporaries (most labels then land in the stored string's SSO), and
    // existing label slots are assigned in place so their buffers recycle.
    const std::string_view raw = r.view(len);
    if (!r.ok) return fail();
    if (count == out.labels_.size()) out.labels_.emplace_back();
    std::string& label = out.labels_[count++];
    label.clear();
    label.reserve(raw.size());
    for (const char c : raw) {
      label.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                           : c);
    }
  }
  out.labels_.resize(count);

  if (resume) r.seek(*resume);
}

}  // namespace lazyeye::dns
