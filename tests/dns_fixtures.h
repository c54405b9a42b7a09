// DNS messages that tests build but the library never does: bare queries,
// answerless response skeletons, and the lab-shaped responses (HTTPS record
// included) that seed the malformed-DNS corpora. SvcParam values are written
// as raw RFC 9460 bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/message.h"

namespace lazyeye::dns::fixtures {

/// A query with one question, the given transaction id and RD bit.
inline DnsMessage query(std::uint16_t id, const DnsName& name, RrType type,
                        bool recursion_desired = false) {
  DnsMessage msg;
  msg.header.id = id;
  msg.header.rd = recursion_desired;
  msg.questions.push_back(Question{name, type});
  return msg;
}

/// The NOERROR response skeleton to query(id, name, type): no records yet.
inline DnsMessage response(std::uint16_t id, const DnsName& name,
                           RrType type) {
  DnsMessage msg = query(id, name, type);
  msg.header.qr = true;
  return msg;
}

/// Lab-shaped responses: an A answer, an AAAA answer, an HTTPS record with
/// an alpn of h3 and h2 and one address hint per family, and a referral
/// with glue.
inline std::vector<std::vector<std::uint8_t>> lab_responses() {
  const DnsName name = DnsName::must_parse("www.he-test.lab");
  const auto v4 = *simnet::Ipv4Address::parse("192.0.2.80");
  const auto v6 = *simnet::Ipv6Address::parse("2001:db8::80");
  DnsMessage a = response(1, name, RrType::kA);
  a.answers.push_back(ResourceRecord::a(name, v4));
  DnsMessage aaaa = response(1, name, RrType::kAaaa);
  aaaa.answers.push_back(ResourceRecord::aaaa(name, v6));
  DnsMessage https = response(1, name, RrType::kHttps);
  SvcbRdata svcb;
  svcb.params[1] = {2, 'h', '3', 2, 'h', '2'};  // alpn
  wire::put_u32(svcb.params[4], v4.value);      // ipv4hint
  wire::put_bytes(svcb.params[6], v6.bytes);    // ipv6hint
  https.answers.push_back({name, RrType::kHttps, 60, svcb});
  DnsMessage referral = response(1, name, RrType::kA);
  const DnsName ns = DnsName::must_parse("ns1.he-test.lab");
  referral.authorities.push_back(
      ResourceRecord::ns(DnsName::must_parse("he-test.lab"), ns));
  referral.additionals.push_back(ResourceRecord::a(ns, v4));
  referral.additionals.push_back(ResourceRecord::aaaa(ns, v6));
  return {a.encode(), aaaa.encode(), https.encode(), referral.encode()};
}

}  // namespace lazyeye::dns::fixtures
