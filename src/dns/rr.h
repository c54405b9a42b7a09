// Resource records: typed rdata for every record the lab serves (A, AAAA,
// NS, CNAME, SOA, OPT), plus TXT and the RFC 9460 SVCB/HTTPS types. No zone
// serves those three; only malformed answers (a corrupted type field) reach
// their decoders, which check the rdata's inner lengths and so reject what
// an unmodelled type would accept as raw bytes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "dns/name.h"
#include "simnet/ip.h"

namespace lazyeye::dns {

enum class RrType : std::uint16_t {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kSoa = 6,
  kTxt = 16,
  kAaaa = 28,
  kOpt = 41,
  kSvcb = 64,
  kHttps = 65,
};

const char* rr_type_name(RrType t);
std::optional<RrType> rr_type_from_name(std::string_view name);

struct ARdata {
  simnet::Ipv4Address addr;
  bool operator==(const ARdata&) const = default;
};

struct AaaaRdata {
  simnet::Ipv6Address addr;
  bool operator==(const AaaaRdata&) const = default;
};

struct NsRdata {
  DnsName ns;
  bool operator==(const NsRdata&) const = default;
};

struct CnameRdata {
  DnsName target;
  bool operator==(const CnameRdata&) const = default;
};

struct SoaRdata {
  DnsName mname;
  DnsName rname;
  std::uint32_t serial = 1;
  std::uint32_t refresh = 7200;
  std::uint32_t retry = 900;
  std::uint32_t expire = 1209600;
  std::uint32_t minimum = 60;
  bool operator==(const SoaRdata&) const = default;
};

/// TXT rdata as its wire bytes: a sequence of <length, bytes>
/// character-strings, each checked on decode to end inside the rdata. Kept
/// whole rather than split into strings, so a decode allocates at most the
/// rdata's length however many (empty) strings it holds.
struct TxtRdata {
  std::vector<std::uint8_t> data;
  bool operator==(const TxtRdata&) const = default;
};

/// RFC 9460 SVCB/HTTPS rdata; each SvcParam value is kept as raw bytes.
struct SvcbRdata {
  std::uint16_t priority = 1;  // 0 = AliasMode, >0 = ServiceMode
  DnsName target;
  std::map<std::uint16_t, std::vector<std::uint8_t>> params;

  bool operator==(const SvcbRdata&) const = default;
};

/// EDNS(0) OPT pseudo-record payload (we only need the UDP size).
struct OptRdata {
  std::uint16_t udp_payload_size = 1232;
  bool operator==(const OptRdata&) const = default;
};

/// Raw bytes for types we do not model (kept for wire fidelity).
struct RawRdata {
  std::uint16_t type = 0;
  std::vector<std::uint8_t> data;
  bool operator==(const RawRdata&) const = default;
};

using Rdata = std::variant<ARdata, AaaaRdata, NsRdata, CnameRdata, SoaRdata,
                           TxtRdata, SvcbRdata, OptRdata, RawRdata>;

struct ResourceRecord {
  DnsName name;
  RrType type = RrType::kA;
  std::uint32_t ttl = 60;
  Rdata rdata;

  bool operator==(const ResourceRecord&) const = default;

  // Convenience constructors.
  static ResourceRecord a(DnsName name, simnet::Ipv4Address addr,
                          std::uint32_t ttl = 60);
  static ResourceRecord aaaa(DnsName name, simnet::Ipv6Address addr,
                             std::uint32_t ttl = 60);
  static ResourceRecord ns(DnsName name, DnsName nsdname,
                           std::uint32_t ttl = 60);
  static ResourceRecord soa(DnsName name, SoaRdata soa, std::uint32_t ttl = 60);

  /// The address carried by an A/AAAA record, if this is one.
  std::optional<simnet::IpAddress> address() const;
};

/// Appends the rdata portion (without the length prefix) of `rr`.
void encode_rdata(const ResourceRecord& rr, std::vector<std::uint8_t>& out,
                  NameCompressor* compression);

/// Decodes rdata given the already-parsed type and rdlength into `out`.
/// When `out` already holds the type's alternative its names and vectors
/// are decoded into in place, so a scratch record recycles their buffers.
void decode_rdata(RrType type, std::uint16_t rdlength, wire::Reader& r,
                  Rdata& out);

}  // namespace lazyeye::dns
