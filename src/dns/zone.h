// Authoritative zone data with RFC 1034 lookup semantics:
// answer / NODATA / NXDOMAIN / delegation (with glue) / CNAME.
#pragma once

#include <map>
#include <memory_resource>
#include <optional>
#include <vector>

#include "dns/rr.h"

namespace lazyeye::dns {

class Zone {
 public:
  /// `mem` backs the record storage; servers built inside an arena-backed
  /// world pass the world's resource so record nodes land on retained
  /// chunks.
  explicit Zone(DnsName origin, std::pmr::memory_resource* mem =
                                    std::pmr::get_default_resource());

  const DnsName& origin() const { return origin_; }

  /// Adds a record; `rr.name` must be at or below the origin.
  void add(ResourceRecord rr);

  // Convenience helpers (names may be given relative to nothing — they must
  // be fully qualified and inside the zone).
  void add_a(const DnsName& name, simnet::Ipv4Address addr,
             std::uint32_t ttl = 60);
  void add_aaaa(const DnsName& name, simnet::Ipv6Address addr,
                std::uint32_t ttl = 60);
  void add_ns(const DnsName& owner, const DnsName& nsdname,
              std::uint32_t ttl = 60);

  enum class RcodeKind {
    kAnswer,      // records of the requested type
    kNoData,      // name exists, no records of that type
    kNxDomain,    // name does not exist
    kDelegation,  // name is below a zone cut: referral
    kCname,       // name owns a CNAME (and qtype != CNAME)
    kNotInZone,   // qname not under this zone's origin
  };

  /// Copy-free lookup result: records point into the zone's own storage
  /// (multimap nodes are stable), valid until the zone is mutated. clear()
  /// keeps the vectors' capacity, so a reused scratch makes the steady-state
  /// lookup allocation-free.
  struct LookupRefs {
    RcodeKind kind = RcodeKind::kNotInZone;
    // Answers, the CNAME, or the delegation's NS set.
    std::vector<const ResourceRecord*> records;
    std::vector<const ResourceRecord*> additional;  // glue for delegations
    const ResourceRecord* soa = nullptr;            // for negative answers

    void clear() {
      kind = RcodeKind::kNotInZone;
      records.clear();
      additional.clear();
      soa = nullptr;
    }
  };

  /// Fills `out` (a caller-reused scratch) with pointers into the zone. The
  /// serve path copies each record at most once, straight into the response
  /// sections. CNAME chasing is left to the server (it may re-query within
  /// the same zone).
  void lookup_into(const DnsName& qname, RrType qtype, LookupRefs& out) const;

 private:
  /// The apex SOA, built on first use: only an apex SOA query and negative
  /// answers read it.
  const ResourceRecord& soa() const;
  bool name_exists(const DnsName& name) const;
  /// Topmost zone cut at/below `qname`, or nullptr. The returned name lives
  /// in `cut_scratch_` (valid until the next call on this zone). Returns at
  /// once while the zone holds no NS record below its apex, the case of
  /// every zone that delegates nothing.
  const DnsName* find_zone_cut(const DnsName& qname) const;

  DnsName origin_;
  // Keyed by wire-byte name order, which nothing may observe: the zone only
  // looks names up (equal_range/count) and scans for a yes/no answer.
  std::pmr::multimap<DnsName, ResourceRecord> records_;
  // The SOA the apex owns, outside records_ (see soa()).
  mutable std::optional<ResourceRecord> soa_;
  // NS records owned by a name strictly below the origin: the only records
  // that can make a zone cut. Counted by add(), the one insertion path.
  std::size_t cut_ns_records_ = 0;
  // Candidate-name scratch for find_zone_cut: suffixes are assigned in
  // place instead of materialising a fresh DnsName per depth step (worlds
  // are single-threaded, so mutable scratch on a const path is safe).
  mutable DnsName cut_scratch_;
};

}  // namespace lazyeye::dns
