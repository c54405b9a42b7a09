#include "dns/rr.h"

#include <cstring>

#include "util/strings.h"

namespace lazyeye::dns {

const char* rr_type_name(RrType t) {
  switch (t) {
    case RrType::kA: return "A";
    case RrType::kNs: return "NS";
    case RrType::kCname: return "CNAME";
    case RrType::kSoa: return "SOA";
    case RrType::kTxt: return "TXT";
    case RrType::kAaaa: return "AAAA";
    case RrType::kOpt: return "OPT";
    case RrType::kSvcb: return "SVCB";
    case RrType::kHttps: return "HTTPS";
  }
  return "TYPE?";
}

std::optional<RrType> rr_type_from_name(std::string_view name) {
  const std::string lower = lazyeye::to_lower(name);
  if (lower == "a") return RrType::kA;
  if (lower == "ns") return RrType::kNs;
  if (lower == "cname") return RrType::kCname;
  if (lower == "soa") return RrType::kSoa;
  if (lower == "txt") return RrType::kTxt;
  if (lower == "aaaa") return RrType::kAaaa;
  if (lower == "opt") return RrType::kOpt;
  if (lower == "svcb") return RrType::kSvcb;
  if (lower == "https") return RrType::kHttps;
  return std::nullopt;
}

// -------------------------------------------------------- constructors ----

ResourceRecord ResourceRecord::a(DnsName name, simnet::Ipv4Address addr,
                                 std::uint32_t ttl) {
  return {std::move(name), RrType::kA, ttl, ARdata{addr}};
}

ResourceRecord ResourceRecord::aaaa(DnsName name, simnet::Ipv6Address addr,
                                    std::uint32_t ttl) {
  return {std::move(name), RrType::kAaaa, ttl, AaaaRdata{addr}};
}

ResourceRecord ResourceRecord::ns(DnsName name, DnsName nsdname,
                                  std::uint32_t ttl) {
  return {std::move(name), RrType::kNs, ttl, NsRdata{std::move(nsdname)}};
}

ResourceRecord ResourceRecord::soa(DnsName name, SoaRdata soa,
                                   std::uint32_t ttl) {
  return {std::move(name), RrType::kSoa, ttl, std::move(soa)};
}

std::optional<simnet::IpAddress> ResourceRecord::address() const {
  if (const auto* a = std::get_if<ARdata>(&rdata)) {
    return simnet::IpAddress{a->addr};
  }
  if (const auto* aaaa = std::get_if<AaaaRdata>(&rdata)) {
    return simnet::IpAddress{aaaa->addr};
  }
  return std::nullopt;
}

// --------------------------------------------------------- wire codecs ----

void encode_rdata(const ResourceRecord& rr, std::vector<std::uint8_t>& out,
                  NameCompressor* compression) {
  if (const auto* a = std::get_if<ARdata>(&rr.rdata)) {
    wire::put_u32(out, a->addr.value);
  } else if (const auto* aaaa = std::get_if<AaaaRdata>(&rr.rdata)) {
    wire::put_bytes(out, aaaa->addr.bytes);
  } else if (const auto* ns = std::get_if<NsRdata>(&rr.rdata)) {
    ns->ns.encode(out, compression);
  } else if (const auto* cn = std::get_if<CnameRdata>(&rr.rdata)) {
    cn->target.encode(out, compression);
  } else if (const auto* soa = std::get_if<SoaRdata>(&rr.rdata)) {
    soa->mname.encode(out, compression);
    soa->rname.encode(out, compression);
    wire::put_u32(out, soa->serial);
    wire::put_u32(out, soa->refresh);
    wire::put_u32(out, soa->retry);
    wire::put_u32(out, soa->expire);
    wire::put_u32(out, soa->minimum);
  } else if (const auto* txt = std::get_if<TxtRdata>(&rr.rdata)) {
    wire::put_bytes(out, txt->data);
  } else if (const auto* svcb = std::get_if<SvcbRdata>(&rr.rdata)) {
    wire::put_u16(out, svcb->priority);
    svcb->target.encode(out, nullptr);  // RFC 9460: target is never compressed
    for (const auto& [key, value] : svcb->params) {
      wire::put_u16(out, key);
      wire::put_u16(out, static_cast<std::uint16_t>(value.size()));
      wire::put_bytes(out, value);
    }
  } else if (const auto* raw = std::get_if<RawRdata>(&rr.rdata)) {
    wire::put_bytes(out, raw->data);
  }
  // OPT rdata is empty; its UDP size lives in the class field.
}

namespace {

/// The `T` alternative of `rdata`: the one it holds (names and vectors keep
/// their buffers for an in-place decode), else a fresh default one.
template <typename T>
T& reuse(Rdata& rdata) {
  if (T* held = std::get_if<T>(&rdata)) return *held;
  return rdata.emplace<T>();
}

}  // namespace

void decode_rdata(RrType type, std::uint16_t rdlength, wire::Reader& r,
                  Rdata& out) {
  const std::size_t end = r.pos + rdlength;
  switch (type) {
    case RrType::kA:
      out = ARdata{simnet::Ipv4Address{r.u32()}};
      return;
    case RrType::kAaaa: {
      AaaaRdata& a = reuse<AaaaRdata>(out);
      const std::string_view bytes = r.view(16);
      if (r.ok) std::memcpy(a.addr.bytes.data(), bytes.data(), 16);
      return;
    }
    case RrType::kNs:
      DnsName::decode_into(r, reuse<NsRdata>(out).ns);
      return;
    case RrType::kCname:
      DnsName::decode_into(r, reuse<CnameRdata>(out).target);
      return;
    case RrType::kSoa: {
      SoaRdata& soa = reuse<SoaRdata>(out);
      DnsName::decode_into(r, soa.mname);
      DnsName::decode_into(r, soa.rname);
      soa.serial = r.u32();
      soa.refresh = r.u32();
      soa.retry = r.u32();
      soa.expire = r.u32();
      soa.minimum = r.u32();
      return;
    }
    case RrType::kTxt: {
      // Walk the character-strings only to check their lengths: one that
      // runs past rdlength fails the record (decode_record). The rdata is
      // kept as the bytes walked, one copy however many strings they hold.
      const std::size_t start = r.pos;
      while (r.ok && r.pos < end) r.skip(r.u8());
      const std::string_view walked =
          r.ok ? r.data.substr(start, r.pos - start) : std::string_view{};
      reuse<TxtRdata>(out).data.assign(walked.begin(), walked.end());
      return;
    }
    case RrType::kSvcb:
    case RrType::kHttps: {
      SvcbRdata& svcb = reuse<SvcbRdata>(out);
      svcb.priority = r.u16();
      DnsName::decode_into(r, svcb.target);
      svcb.params.clear();
      while (r.ok && r.pos + 4 <= end) {
        const std::uint16_t key = r.u16();
        // RFC 9460 §2.2: keys strictly increase; an out-of-order or
        // repeated key fails the record instead of overwriting a value.
        if (!svcb.params.empty() && key <= svcb.params.rbegin()->first) {
          r.ok = false;
          return;
        }
        const std::string_view value = r.view(r.u16());
        svcb.params[key].assign(value.begin(), value.end());
      }
      return;
    }
    case RrType::kOpt:
      r.skip(rdlength);
      out = OptRdata{};
      return;
  }
  const std::string_view data = r.view(rdlength);
  RawRdata& raw = reuse<RawRdata>(out);
  raw.type = static_cast<std::uint16_t>(type);
  raw.data.assign(data.begin(), data.end());
}

}  // namespace lazyeye::dns
