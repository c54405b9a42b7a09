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

// ------------------------------------------------------ SVCB parameters ----

void SvcbRdata::set_alpn(const std::vector<std::string>& protocols) {
  std::vector<std::uint8_t> value;
  for (const auto& p : protocols) {
    wire::put_u8(value, static_cast<std::uint8_t>(p.size()));
    wire::put_bytes(value, p);
  }
  params[static_cast<std::uint16_t>(SvcParamKey::kAlpn)] = std::move(value);
}

std::vector<std::string> SvcbRdata::alpn() const {
  std::vector<std::string> out;
  const auto it = params.find(static_cast<std::uint16_t>(SvcParamKey::kAlpn));
  if (it == params.end()) return out;
  wire::Reader r{it->second};
  while (r.remaining() > 0) {
    const std::uint8_t len = r.u8();
    out.emplace_back(r.view(len));
  }
  return out;
}

void SvcbRdata::set_port(std::uint16_t port) {
  std::vector<std::uint8_t> value;
  wire::put_u16(value, port);
  params[static_cast<std::uint16_t>(SvcParamKey::kPort)] = std::move(value);
}

std::optional<std::uint16_t> SvcbRdata::port() const {
  const auto it = params.find(static_cast<std::uint16_t>(SvcParamKey::kPort));
  if (it == params.end() || it->second.size() != 2) return std::nullopt;
  return wire::Reader{it->second}.u16();
}

void SvcbRdata::set_ipv4_hints(const std::vector<simnet::Ipv4Address>& addrs) {
  std::vector<std::uint8_t> value;
  for (const auto& a : addrs) wire::put_u32(value, a.value);
  params[static_cast<std::uint16_t>(SvcParamKey::kIpv4Hint)] = std::move(value);
}

std::vector<simnet::Ipv4Address> SvcbRdata::ipv4_hints() const {
  std::vector<simnet::Ipv4Address> out;
  const auto it =
      params.find(static_cast<std::uint16_t>(SvcParamKey::kIpv4Hint));
  if (it == params.end()) return out;
  wire::Reader r{it->second};
  while (r.remaining() >= 4) {
    out.push_back(simnet::Ipv4Address{r.u32()});
  }
  return out;
}

void SvcbRdata::set_ipv6_hints(const std::vector<simnet::Ipv6Address>& addrs) {
  std::vector<std::uint8_t> value;
  for (const auto& a : addrs) wire::put_bytes(value, a.bytes);
  params[static_cast<std::uint16_t>(SvcParamKey::kIpv6Hint)] = std::move(value);
}

std::vector<simnet::Ipv6Address> SvcbRdata::ipv6_hints() const {
  std::vector<simnet::Ipv6Address> out;
  const auto it =
      params.find(static_cast<std::uint16_t>(SvcParamKey::kIpv6Hint));
  if (it == params.end()) return out;
  wire::Reader r{it->second};
  while (r.remaining() >= 16) {
    std::memcpy(out.emplace_back().bytes.data(), r.view(16).data(), 16);
  }
  return out;
}

void SvcbRdata::set_ech(std::vector<std::uint8_t> config) {
  params[static_cast<std::uint16_t>(SvcParamKey::kEch)] = std::move(config);
}

bool SvcbRdata::has_ech() const {
  return params.count(static_cast<std::uint16_t>(SvcParamKey::kEch)) > 0;
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

ResourceRecord ResourceRecord::cname(DnsName name, DnsName target,
                                     std::uint32_t ttl) {
  return {std::move(name), RrType::kCname, ttl,
          CnameRdata{std::move(target)}};
}

ResourceRecord ResourceRecord::soa(DnsName name, SoaRdata soa,
                                   std::uint32_t ttl) {
  return {std::move(name), RrType::kSoa, ttl, std::move(soa)};
}

ResourceRecord ResourceRecord::txt(DnsName name,
                                   std::vector<std::string> strings,
                                   std::uint32_t ttl) {
  return {std::move(name), RrType::kTxt, ttl, TxtRdata{std::move(strings)}};
}

ResourceRecord ResourceRecord::svcb(DnsName name, SvcbRdata rdata, bool https,
                                    std::uint32_t ttl) {
  return {std::move(name), https ? RrType::kHttps : RrType::kSvcb, ttl,
          std::move(rdata)};
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

std::string ResourceRecord::to_string() const {
  std::string rd;
  if (const auto* a = std::get_if<ARdata>(&rdata)) {
    rd = a->addr.to_string();
  } else if (const auto* aaaa = std::get_if<AaaaRdata>(&rdata)) {
    rd = aaaa->addr.to_string();
  } else if (const auto* ns = std::get_if<NsRdata>(&rdata)) {
    rd = ns->ns.to_string();
  } else if (const auto* cn = std::get_if<CnameRdata>(&rdata)) {
    rd = cn->target.to_string();
  } else if (const auto* soa = std::get_if<SoaRdata>(&rdata)) {
    rd = soa->mname.to_string() + " " + soa->rname.to_string();
  } else if (const auto* txt = std::get_if<TxtRdata>(&rdata)) {
    rd = lazyeye::join(txt->strings, " ");
  } else if (const auto* svcb = std::get_if<SvcbRdata>(&rdata)) {
    rd = lazyeye::str_format("%u %s (+%zu params)", svcb->priority,
                             svcb->target.to_string().c_str(),
                             svcb->params.size());
  } else if (std::get_if<OptRdata>(&rdata) != nullptr) {
    rd = "EDNS0";
  } else if (const auto* raw = std::get_if<RawRdata>(&rdata)) {
    rd = lazyeye::str_format("\\# %zu", raw->data.size());
  }
  return lazyeye::str_format("%s %u IN %s %s", name.to_string().c_str(), ttl,
                             rr_type_name(type), rd.c_str());
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
    for (const auto& s : txt->strings) {
      wire::put_u8(out, static_cast<std::uint8_t>(s.size()));
      wire::put_bytes(out, s);
    }
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
      TxtRdata& txt = reuse<TxtRdata>(out);
      txt.strings.clear();
      while (r.ok && r.pos < end) {
        const std::uint8_t len = r.u8();
        txt.strings.emplace_back(r.view(len));
      }
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
