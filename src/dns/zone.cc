#include "dns/zone.h"

#include <stdexcept>

namespace lazyeye::dns {

Zone::Zone(DnsName origin, std::pmr::memory_resource* mem)
    : origin_{std::move(origin)}, records_{mem} {}

const ResourceRecord& Zone::soa() const {
  if (!soa_) {
    // The relative SOA name stems are process-wide constants; only the
    // concat with this zone's origin is per-zone work.
    static const DnsName ns1 = DnsName::must_parse("ns1");
    static const DnsName hostmaster = DnsName::must_parse("hostmaster");
    SoaRdata soa;
    soa.mname = ns1.concat(origin_);
    soa.rname = hostmaster.concat(origin_);
    soa_.emplace(ResourceRecord::soa(origin_, std::move(soa)));
  }
  return *soa_;
}

void Zone::add(ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(origin_)) {
    throw std::invalid_argument("record " + rr.name.to_string() +
                                " outside zone " + origin_.to_string());
  }
  if (rr.type == RrType::kNs && rr.name != origin_) ++cut_ns_records_;
  records_.emplace(rr.name, std::move(rr));
}

void Zone::add_a(const DnsName& name, simnet::Ipv4Address addr,
                 std::uint32_t ttl) {
  add(ResourceRecord::a(name, addr, ttl));
}

void Zone::add_aaaa(const DnsName& name, simnet::Ipv6Address addr,
                    std::uint32_t ttl) {
  add(ResourceRecord::aaaa(name, addr, ttl));
}

void Zone::add_ns(const DnsName& owner, const DnsName& nsdname,
                  std::uint32_t ttl) {
  add(ResourceRecord::ns(owner, nsdname, ttl));
}

bool Zone::name_exists(const DnsName& name) const {
  if (records_.count(name) > 0) return true;
  // An "empty non-terminal" exists if any record lives below it.
  for (const auto& [owner, rr] : records_) {
    if (owner != name && owner.is_subdomain_of(name)) return true;
  }
  return false;
}

const DnsName* Zone::find_zone_cut(const DnsName& qname) const {
  // Walk from just below the origin down towards qname, looking for an NS
  // RRset at an intermediate owner (a zone cut). The origin's own NS records
  // are apex records, not a cut. Each candidate is a label suffix of qname,
  // assigned into the reused scratch, so the walk copies no name.
  if (cut_ns_records_ == 0) return nullptr;
  const std::size_t extra = qname.label_count() - origin_.label_count();
  for (std::size_t depth = 1; depth <= extra; ++depth) {
    // candidate = last (origin_labels + depth) labels of qname.
    cut_scratch_.assign_tail(qname, extra - depth);
    const auto range = records_.equal_range(cut_scratch_);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second.type == RrType::kNs && cut_scratch_ != origin_) {
        return &cut_scratch_;
      }
    }
  }
  return nullptr;
}

void Zone::lookup_into(const DnsName& qname, RrType qtype,
                       LookupRefs& out) const {
  out.clear();
  if (!qname.is_subdomain_of(origin_)) {
    out.kind = RcodeKind::kNotInZone;
    return;
  }

  // Delegation check first (RFC 1034 4.3.2 step 3b).
  if (const auto cut = find_zone_cut(qname)) {
    out.kind = RcodeKind::kDelegation;
    const auto range = records_.equal_range(*cut);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second.type != RrType::kNs) continue;
      out.records.push_back(&it->second);
      const auto& nsname = std::get<NsRdata>(it->second.rdata).ns;
      const auto glue_range = records_.equal_range(nsname);
      for (auto g = glue_range.first; g != glue_range.second; ++g) {
        if (g->second.type == RrType::kA || g->second.type == RrType::kAaaa) {
          out.additional.push_back(&g->second);
        }
      }
    }
    return;
  }

  const auto range = records_.equal_range(qname);
  const bool apex = qname == origin_;
  // The apex owns the zone SOA, so it exists even in an empty zone.
  const bool name_has_records = apex || range.first != range.second;

  // CNAME handling (only when the query is not for the CNAME itself).
  if (qtype != RrType::kCname) {
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second.type == RrType::kCname) {
        out.kind = RcodeKind::kCname;
        out.records.push_back(&it->second);
        return;
      }
    }
  }

  if (apex && qtype == RrType::kSoa) out.records.push_back(&soa());
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second.type == qtype) out.records.push_back(&it->second);
  }
  if (!out.records.empty()) {
    out.kind = RcodeKind::kAnswer;
    return;
  }

  if (name_has_records || name_exists(qname)) {
    out.kind = RcodeKind::kNoData;
  } else {
    out.kind = RcodeKind::kNxDomain;
  }
  out.soa = &soa();
}

}  // namespace lazyeye::dns
