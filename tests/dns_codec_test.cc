// DNS wire-format tests: names (incl. compression), rdata, full messages,
// randomised round-trip property tests, and garbage rejection.
#include <gtest/gtest.h>

#include <algorithm>

#include "conformance/fault.h"
#include "dns/message.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "dns/test_params.h"
#include "dns_fixtures.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/wire.h"

namespace lazyeye::dns {
namespace {

using simnet::IpAddress;
using simnet::Ipv4Address;
using simnet::Ipv6Address;

/// The name at the reader's cursor (the root name on failure).
DnsName decode_name(wire::Reader& r) {
  DnsName name;
  DnsName::decode_into(r, name);
  return name;
}

// ---------------------------------------------------------------- names ----

TEST(DnsNameTest, FromStringBasics) {
  const auto name = DnsName::must_parse("www.Example.COM");
  EXPECT_EQ(name.to_string(), "www.example.com");
  EXPECT_EQ(name.label_count(), 3u);
  std::vector<std::string> labels;
  name.for_each_label(
      [&](std::string_view label) { labels.emplace_back(label); });
  EXPECT_EQ(labels, (std::vector<std::string>{"www", "example", "com"}));
}

TEST(DnsNameTest, RootForms) {
  EXPECT_TRUE(DnsName::must_parse("").is_root());
  EXPECT_TRUE(DnsName::must_parse(".").is_root());
  EXPECT_EQ(DnsName{}.to_string(), ".");
  EXPECT_EQ(DnsName{}.wire_length(), 1u);
  bool called = false;
  DnsName{}.for_each_label([&](std::string_view) { called = true; });
  EXPECT_FALSE(called);
}

TEST(DnsNameTest, TrailingDotOptional) {
  EXPECT_EQ(DnsName::must_parse("a.b."), DnsName::must_parse("a.b"));
}

TEST(DnsNameTest, RejectsBadLabels) {
  EXPECT_FALSE(DnsName::from_string("a..b").ok());
  EXPECT_FALSE(DnsName::from_string(std::string(64, 'x') + ".com").ok());
  // > 255 octets total.
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcde.";
  long_name += "com";
  EXPECT_FALSE(DnsName::from_string(long_name).ok());
}

/// A one-label name whose single binary label, "x\7example\3com", ends
/// with the wire form of example.com.
DnsName binary_label_name() {
  const std::string label{"x\x07" "example\x03" "com"};
  std::vector<std::uint8_t> bytes;
  wire::put_u8(bytes, static_cast<std::uint8_t>(label.size()));
  wire::put_bytes(bytes, label);
  wire::put_u8(bytes, 0);
  wire::Reader r{bytes};
  DnsName name = decode_name(r);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(name.label_count(), 1u);
  return name;
}

TEST(DnsNameTest, SubdomainRelation) {
  const auto com = DnsName::must_parse("com");
  const auto example = DnsName::must_parse("example.com");
  const auto www = DnsName::must_parse("www.example.com");
  EXPECT_TRUE(www.is_subdomain_of(example));
  EXPECT_TRUE(www.is_subdomain_of(com));
  EXPECT_TRUE(www.is_subdomain_of(DnsName{}));  // everything under root
  EXPECT_TRUE(example.is_subdomain_of(example));
  EXPECT_FALSE(example.is_subdomain_of(www));
  EXPECT_FALSE(DnsName::must_parse("example.org").is_subdomain_of(com));
  // Label-boundary check: notexample.com is NOT under example.com.
  EXPECT_FALSE(
      DnsName::must_parse("notexample.com").is_subdomain_of(example));
  // Wire bytes that end with example.com's, but not from a label boundary.
  const DnsName binary = binary_label_name();
  EXPECT_FALSE(binary.is_subdomain_of(example));
  EXPECT_FALSE(binary.is_subdomain_of(com));
  EXPECT_TRUE(binary.is_subdomain_of(binary));
  EXPECT_TRUE(binary.is_subdomain_of(DnsName{}));
}

TEST(DnsNameTest, PrependAndConcat) {
  EXPECT_EQ(DnsName::must_parse("example.com").prepend("api").to_string(),
            "api.example.com");
  EXPECT_EQ(DnsName::must_parse("a").concat(DnsName::must_parse("b.c")),
            DnsName::must_parse("a.b.c"));
}

TEST(DnsNameTest, WireRoundTripNoCompression) {
  const auto name = DnsName::must_parse("ns1.z250.lab");
  std::vector<std::uint8_t> out;
  name.encode(out, nullptr);
  EXPECT_EQ(out.size(), name.wire_length());
  wire::Reader r{out};
  EXPECT_EQ(decode_name(r), name);
  EXPECT_TRUE(r.exhausted());
}

TEST(DnsNameTest, CompressionProducesPointer) {
  NameCompressor map;
  std::vector<std::uint8_t> out;
  const auto a = DnsName::must_parse("www.example.com");
  const auto b = DnsName::must_parse("mail.example.com");
  a.encode(out, &map);
  const std::size_t first_len = out.size();
  b.encode(out, &map);
  // "mail" label (5 bytes) + 2-byte pointer to "example.com".
  EXPECT_EQ(out.size(), first_len + 5 + 2);

  // Both decode correctly from the shared buffer.
  wire::Reader r{out};
  EXPECT_EQ(decode_name(r), a);
  EXPECT_EQ(decode_name(r), b);
  EXPECT_TRUE(r.exhausted());
}

/// Uncompressed wire form of one name with labels of these lengths.
std::vector<std::uint8_t> name_wire(std::initializer_list<std::size_t> lengths) {
  std::vector<std::uint8_t> out;
  char fill = 'a';
  for (const std::size_t len : lengths) {
    wire::put_u8(out, static_cast<std::uint8_t>(len));
    wire::put_bytes(out, std::string(len, fill++));
  }
  wire::put_u8(out, 0);
  return out;
}

TEST(DnsNameTest, DecodeLengthBoundCountsTheRootByte) {
  // RFC 1035 §2.3.4: at most 255 octets, root byte included. 63+63+63+62
  // label octets plus four length bytes and the root byte make 256.
  const auto too_long = name_wire({63, 63, 63, 62});
  ASSERT_EQ(too_long.size(), 256u);
  wire::Reader reject{too_long};
  EXPECT_TRUE(decode_name(reject).is_root());
  EXPECT_FALSE(reject.ok);

  for (std::size_t last = 1; last <= 61; ++last) {
    const auto bytes = name_wire({63, 63, 63, last});
    wire::Reader r{bytes};
    const DnsName name = decode_name(r);
    ASSERT_TRUE(r.ok) << "last label " << last;
    EXPECT_EQ(name.wire_length(), bytes.size());
    // Everything decode accepts, the text parser accepts too.
    const auto reparsed = DnsName::from_string(name.to_string());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error();
    EXPECT_EQ(reparsed.value(), name);
  }
}

TEST(DnsNameTest, CompressionReusesOnlyLabelAlignedSuffixes) {
  // example.com's wire bytes sit inside the binary label, but not at a
  // label boundary, so they are no pointer target.
  const DnsName binary = binary_label_name();
  NameCompressor compressor;
  std::vector<std::uint8_t> out;
  binary.encode(out, &compressor);
  const auto example = DnsName::must_parse("example.com");
  example.encode(out, &compressor);
  EXPECT_EQ(out.size(), binary.wire_length() + example.wire_length());
  // A label-aligned suffix is reused: "www" plus a pointer to example.com.
  const std::size_t before = out.size();
  const auto www = DnsName::must_parse("www.example.com");
  www.encode(out, &compressor);
  ASSERT_EQ(out.size(), before + 4 + 2);
  EXPECT_EQ(out[before + 4], 0xC0);
  EXPECT_EQ(out[before + 5], binary.wire_length());

  wire::Reader r{out};
  EXPECT_EQ(decode_name(r), binary);
  EXPECT_EQ(decode_name(r), example);
  EXPECT_EQ(decode_name(r), www);
  EXPECT_TRUE(r.exhausted());
}

TEST(DnsNameTest, DecodeRejectsPointerLoop) {
  // A name that points to itself: 0xC000 at offset 0.
  const std::vector<std::uint8_t> bytes{0xC0, 0x00};
  wire::Reader r{bytes};
  decode_name(r);
  EXPECT_FALSE(r.ok);
}

TEST(DnsNameTest, DecodeRejectsTruncated) {
  const std::vector<std::uint8_t> bytes{0x05, 'a', 'b'};
  wire::Reader r{bytes};
  decode_name(r);
  EXPECT_FALSE(r.ok);
}

// ---------------------------------------------------------------- rdata ----

TEST(RrTest, TypeNames) {
  EXPECT_STREQ(rr_type_name(RrType::kAaaa), "AAAA");
  EXPECT_EQ(rr_type_from_name("aaaa"), RrType::kAaaa);
  EXPECT_EQ(rr_type_from_name("HTTPS"), RrType::kHttps);
  EXPECT_FALSE(rr_type_from_name("bogus"));
}

TEST(RrTest, AddressAccessor) {
  const auto a =
      ResourceRecord::a(DnsName::must_parse("x.lab"), *Ipv4Address::parse("10.0.0.1"));
  ASSERT_TRUE(a.address());
  EXPECT_EQ(a.address()->to_string(), "10.0.0.1");
  const auto ns = ResourceRecord::ns(DnsName::must_parse("x.lab"),
                                     DnsName::must_parse("ns.x.lab"));
  EXPECT_FALSE(ns.address());
}

// -------------------------------------------------------------- message ----

DnsMessage sample_message() {
  DnsMessage msg;
  msg.header.id = 0x1234;
  msg.header.qr = true;
  msg.header.aa = true;
  msg.header.rd = true;
  msg.header.ra = true;
  msg.header.rcode = Rcode::kNoError;
  const auto qname = DnsName::must_parse("www.he-test.lab");
  msg.questions.push_back({qname, RrType::kAaaa});
  msg.answers.push_back(
      ResourceRecord::aaaa(qname, *Ipv6Address::parse("2001:db8::10"), 300));
  msg.answers.push_back({DnsName::must_parse("alias.he-test.lab"),
                         RrType::kCname, 60, CnameRdata{qname}});
  msg.authorities.push_back(ResourceRecord::ns(
      DnsName::must_parse("he-test.lab"), DnsName::must_parse("ns1.he-test.lab")));
  msg.additionals.push_back(ResourceRecord::a(
      DnsName::must_parse("ns1.he-test.lab"), *Ipv4Address::parse("10.1.1.1")));
  return msg;
}

TEST(DnsMessageTest, EncodeDecodeRoundTrip) {
  const DnsMessage msg = sample_message();
  const auto wire = msg.encode();
  const auto decoded = DnsMessage::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), msg);
}

TEST(DnsMessageTest, HeaderFlagsRoundTrip) {
  DnsMessage msg;
  msg.header.id = 77;
  msg.header.qr = true;
  msg.header.opcode = 2;
  msg.header.tc = true;
  msg.header.rcode = Rcode::kNxDomain;
  const auto decoded = DnsMessage::decode(msg.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().header, msg.header);
}

TEST(DnsMessageTest, CompressionShrinksMessage) {
  DnsMessage msg = sample_message();
  const auto wire = msg.encode();
  // Upper bound if no compression: sum of full name encodings.
  std::size_t uncompressed = 12;  // header
  uncompressed += msg.questions[0].name.wire_length() + 4;
  for (const auto* section : {&msg.answers, &msg.authorities, &msg.additionals}) {
    for (const auto& rr : *section) {
      uncompressed += rr.name.wire_length() + 10 + 64;  // generous rdata bound
    }
  }
  EXPECT_LT(wire.size(), uncompressed);
  // And the qname suffix should appear exactly once.
  const std::string needle = "he-test";
  std::size_t occurrences = 0;
  for (std::size_t i = 0; i + needle.size() <= wire.size(); ++i) {
    if (std::equal(needle.begin(), needle.end(), wire.begin() + static_cast<std::ptrdiff_t>(i))) {
      ++occurrences;
    }
  }
  EXPECT_EQ(occurrences, 1u);
  // The exact bytes: every pointer (0xC00C, 0xC010, 0xC05D) targets a
  // label-aligned suffix recorded earlier in the message.
  const std::vector<std::uint8_t> expected{
      0x12, 0x34, 0x85, 0x80, 0x00, 0x01, 0x00, 0x02, 0x00, 0x01, 0x00, 0x01,
      0x03, 0x77, 0x77, 0x77, 0x07, 0x68, 0x65, 0x2d, 0x74, 0x65, 0x73, 0x74,
      0x03, 0x6c, 0x61, 0x62, 0x00, 0x00, 0x1c, 0x00, 0x01, 0xc0, 0x0c, 0x00,
      0x1c, 0x00, 0x01, 0x00, 0x00, 0x01, 0x2c, 0x00, 0x10, 0x20, 0x01, 0x0d,
      0xb8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x10, 0x05, 0x61, 0x6c, 0x69, 0x61, 0x73, 0xc0, 0x10, 0x00, 0x05, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x3c, 0x00, 0x02, 0xc0, 0x0c, 0xc0, 0x10, 0x00,
      0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3c, 0x00, 0x06, 0x03, 0x6e, 0x73,
      0x31, 0xc0, 0x10, 0xc0, 0x5d, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x3c, 0x00, 0x04, 0x0a, 0x01, 0x01, 0x01};
  EXPECT_EQ(wire, expected);
}

TEST(DnsMessageTest, AddressesForFollowsCname) {
  DnsMessage msg;
  const auto alias = DnsName::must_parse("alias.lab");
  const auto target = DnsName::must_parse("real.lab");
  msg.answers.push_back({alias, RrType::kCname, 60, CnameRdata{target}});
  msg.answers.push_back(
      ResourceRecord::a(target, *Ipv4Address::parse("10.0.0.5")));
  std::vector<IpAddress> addrs;
  msg.addresses_for_into(alias, RrType::kA, addrs);
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0].to_string(), "10.0.0.5");
}

TEST(DnsMessageTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DnsMessage::decode({}).ok());
  const std::vector<std::uint8_t> short_wire{0x00, 0x01, 0x02};
  EXPECT_FALSE(DnsMessage::decode(short_wire).ok());
  // Valid header claiming one question but no question bytes.
  std::vector<std::uint8_t> lying(12, 0);
  lying[5] = 1;  // qdcount = 1
  EXPECT_FALSE(DnsMessage::decode(lying).ok());
}

TEST(DnsMessageTest, SectionCountsAreBoundedByTheWire) {
  // A bare 12-byte header claiming 0xFFFF entries in every section. Decoding
  // it must fail without growing any section to the claimed count.
  const std::vector<std::uint8_t> lying{0x00, 0x01, 0x81, 0x80, 0xFF, 0xFF,
                                        0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  DnsMessage fresh;
  EXPECT_FALSE(DnsMessage::decode_into(lying, fresh));
  const std::size_t bound = lying.size() / 5;
  EXPECT_LE(fresh.questions.capacity(), bound);
  EXPECT_LE(fresh.answers.capacity(), bound);
  EXPECT_LE(fresh.authorities.capacity(), bound);
  EXPECT_LE(fresh.additionals.capacity(), bound);

  // Each section still reports its own error.
  const auto claim = [](int section, std::size_t trailing) {
    std::vector<std::uint8_t> wire(12 + trailing, 0);
    wire[4 + 2 * section] = 0xFF;
    wire[5 + 2 * section] = 0xFF;
    return DnsMessage::decode(wire).error();
  };
  EXPECT_EQ(claim(0, 4), "truncated question");
  EXPECT_EQ(claim(1, 10), "truncated answer section");
  EXPECT_EQ(claim(2, 10), "truncated authority section");
  EXPECT_EQ(claim(3, 10), "truncated additional section");
}

TEST(DnsMessageTest, DecodeToleratesUnknownRrType) {
  // Hand-craft a message with an unknown type 99 record.
  std::vector<std::uint8_t> out;
  wire::put_u16(out, 1);       // id
  wire::put_u16(out, 0x8000);  // qr
  wire::put_u16(out, 0);       // qd
  wire::put_u16(out, 1);       // an
  wire::put_u16(out, 0);
  wire::put_u16(out, 0);
  DnsName::must_parse("x.lab").encode(out, nullptr);
  wire::put_u16(out, 99);  // type
  wire::put_u16(out, 1);   // class
  wire::put_u32(out, 60);  // ttl
  wire::put_u16(out, 3);   // rdlength
  wire::put_u8(out, 0xaa);
  wire::put_u8(out, 0xbb);
  wire::put_u8(out, 0xcc);
  const auto decoded = DnsMessage::decode(out);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const auto* raw = std::get_if<RawRdata>(&decoded.value().answers[0].rdata);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->data.size(), 3u);
}

/// A response with two answers: a record of `type` carrying `rdata`, then
/// x.lab A 10.0.0.1, whose bytes lie past `rdata` inside the datagram.
std::vector<std::uint8_t> answer_then_a_record(
    std::uint16_t type, const std::vector<std::uint8_t>& rdata) {
  std::vector<std::uint8_t> out;
  for (const std::uint16_t field : {1, 0x8000, 0, 2, 0, 0}) {
    wire::put_u16(out, field);  // id, flags (QR), two answers
  }
  const DnsName owner = DnsName::must_parse("x.lab");
  owner.encode(out, nullptr);
  wire::put_u16(out, type);
  wire::put_u16(out, 1);  // class IN
  wire::put_u32(out, 60);
  wire::put_u16(out, static_cast<std::uint16_t>(rdata.size()));
  wire::put_bytes(out, rdata);
  owner.encode(out, nullptr);
  wire::put_u16(out, static_cast<std::uint16_t>(RrType::kA));
  wire::put_u16(out, 1);
  wire::put_u32(out, 60);
  wire::put_u16(out, 4);
  wire::put_u32(out, 0x0a000001);
  return out;
}

// The TXT and SVCB/HTTPS decoders check the lengths inside their rdata: a
// character-string or SvcParam that runs past rdlength fails the message,
// even when the bytes it claims are there (the next record's). The same
// rdata under an unmodelled type is opaque and decodes as RawRdata.
TEST(DnsMessageTest, TypedRdataOverrunningRdlengthIsRejected) {
  // One character-string claiming 5 bytes in a 3-byte rdata.
  const std::vector<std::uint8_t> txt{5, 'a', 'b'};
  // Priority 1, root target, then alpn claiming 10 bytes of which 2 follow.
  const std::vector<std::uint8_t> svcb{0, 1, 0, 0, 1, 0, 10, 'h', '3'};
  for (const auto& [type, rdata] :
       {std::pair{RrType::kTxt, txt}, std::pair{RrType::kSvcb, svcb},
        std::pair{RrType::kHttps, svcb}}) {
    const std::string label = rr_type_name(type);
    const auto typed =
        answer_then_a_record(static_cast<std::uint16_t>(type), rdata);
    DnsMessage scratch;
    EXPECT_FALSE(DnsMessage::decode_into(typed, scratch)) << label;
    EXPECT_EQ(DnsMessage::decode(typed).error(), "truncated answer section")
        << label;

    const auto opaque = answer_then_a_record(99, rdata);
    ASSERT_TRUE(DnsMessage::decode_into(opaque, scratch)) << label;
    ASSERT_EQ(scratch.answers.size(), 2u) << label;
    const auto* raw = std::get_if<RawRdata>(&scratch.answers[0].rdata);
    ASSERT_NE(raw, nullptr) << label;
    EXPECT_EQ(raw->type, 99) << label;
    EXPECT_EQ(raw->data, rdata) << label;
    EXPECT_EQ(scratch.answers[1].address().value_or(IpAddress{}),
              IpAddress::must_parse("10.0.0.1"))
        << label;
  }
}

// RFC 9460 §2.2: SvcParamKeys appear in strictly increasing order, and a
// record that repeats a key or puts one out of order is malformed. Before
// this check, keys 3 (port 443), 1, 3 (port 8443) decoded to two params: the
// second port overwrote the first and the record re-encoded shorter.
TEST(DnsMessageTest, SvcParamKeysOutOfOrderOrRepeatedFailTheRecord) {
  using Params = std::vector<std::pair<std::uint16_t, std::vector<std::uint8_t>>>;
  const std::vector<std::uint8_t> alpn_h2{2, 'h', '2'};
  const std::vector<std::uint8_t> port_443{0x01, 0xbb};
  const std::vector<std::uint8_t> port_8443{0x20, 0xfb};
  const auto rdata = [](const Params& params) {
    std::vector<std::uint8_t> out{0, 1, 0};  // priority 1, root target
    for (const auto& [key, value] : params) {
      wire::put_u16(out, key);
      wire::put_u16(out, static_cast<std::uint16_t>(value.size()));
      wire::put_bytes(out, value);
    }
    return out;
  };
  for (const RrType type : {RrType::kSvcb, RrType::kHttps}) {
    const std::string label = rr_type_name(type);
    const auto code = static_cast<std::uint16_t>(type);
    DnsMessage scratch;
    for (const Params& rejected :
         {Params{{3, port_443}, {1, alpn_h2}, {3, port_8443}},
          Params{{1, alpn_h2}, {3, port_443}, {3, port_8443}},
          Params{{3, port_443}, {1, alpn_h2}}}) {
      const auto wire = answer_then_a_record(code, rdata(rejected));
      EXPECT_FALSE(DnsMessage::decode_into(wire, scratch)) << label;
      EXPECT_EQ(DnsMessage::decode(wire).error(), "truncated answer section")
          << label;
    }

    const auto ascending =
        answer_then_a_record(code, rdata({{1, alpn_h2}, {3, port_443}}));
    ASSERT_TRUE(DnsMessage::decode_into(ascending, scratch)) << label;
    const auto* svcb = std::get_if<SvcbRdata>(&scratch.answers[0].rdata);
    ASSERT_NE(svcb, nullptr) << label;
    ASSERT_EQ(svcb->params.size(), 2u) << label;
    EXPECT_EQ(svcb->params.at(1), alpn_h2) << label;
    EXPECT_EQ(svcb->params.at(3), port_443) << label;
    EXPECT_EQ(DnsMessage::decode(scratch.encode()).value(), scratch) << label;
  }
}

// A TXT rdata decodes to the bytes it carries, empty character-strings
// included, and encodes back to them.
TEST(DnsMessageTest, TxtRdataKeepsItsCharacterStrings) {
  const std::vector<std::uint8_t> rdata{0, 2, 'h', 'i', 0, 0, 1, '!'};
  const auto wire = answer_then_a_record(
      static_cast<std::uint16_t>(RrType::kTxt), rdata);
  DnsMessage scratch;
  ASSERT_TRUE(DnsMessage::decode_into(wire, scratch));
  const auto* txt = std::get_if<TxtRdata>(&scratch.answers[0].rdata);
  ASSERT_NE(txt, nullptr);
  EXPECT_EQ(txt->data, rdata);
  EXPECT_EQ(DnsMessage::decode(scratch.encode()).value(), scratch);
}

// Property test: randomized messages round-trip bit-exact (structurally).
TEST(DnsMessageTest, RandomisedRoundTripProperty) {
  Rng rng{2024};
  const std::vector<std::string> label_pool{"a",  "bb",   "ccc", "www",
                                            "ns1", "zone", "lab", "x9"};
  auto random_name = [&] {
    DnsName name;
    const int n = static_cast<int>(rng.next_in_range(1, 4));
    for (int i = 0; i < n; ++i) {
      name = name.prepend(label_pool[rng.next_below(label_pool.size())]);
    }
    return name;
  };
  auto random_record = [&](const DnsName& name) -> ResourceRecord {
    switch (rng.next_below(6)) {
      case 0:
        return ResourceRecord::a(
            name, simnet::Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())},
            static_cast<std::uint32_t>(rng.next_below(86400)));
      case 1: {
        simnet::Ipv6Address v6;
        for (auto& b : v6.bytes) b = static_cast<std::uint8_t>(rng.next_u64());
        return ResourceRecord::aaaa(name, v6);
      }
      case 2:
        return ResourceRecord::ns(name, random_name());
      case 3:
        return {name, RrType::kCname, 60, CnameRdata{random_name()}};
      case 4: {
        // One character-string.
        const std::string text = "p=" + std::to_string(rng.next_below(1000));
        TxtRdata txt;
        wire::put_u8(txt.data, static_cast<std::uint8_t>(text.size()));
        wire::put_bytes(txt.data, text);
        return {name, RrType::kTxt, 60, txt};
      }
      default: {
        SvcbRdata svcb;
        svcb.priority = static_cast<std::uint16_t>(rng.next_in_range(0, 3));
        svcb.target = random_name();
        if (rng.chance(0.5)) svcb.params[1] = {2, 'h', '3'};  // alpn
        if (rng.chance(0.5)) {
          wire::put_u16(svcb.params[3],  // port
                        static_cast<std::uint16_t>(rng.next_in_range(1, 65535)));
        }
        const RrType type = rng.chance(0.5) ? RrType::kHttps : RrType::kSvcb;
        return {name, type, 60, svcb};
      }
    }
  };

  // One scratch decodes every message too: each record's rdata is decoded
  // in place over whatever the previous message left there.
  DnsMessage scratch;
  for (int iteration = 0; iteration < 200; ++iteration) {
    DnsMessage msg;
    msg.header.id = static_cast<std::uint16_t>(rng.next_u64());
    msg.header.qr = rng.chance(0.5);
    msg.header.aa = rng.chance(0.5);
    msg.header.rd = rng.chance(0.5);
    msg.header.ra = rng.chance(0.5);
    msg.header.rcode = static_cast<Rcode>(rng.next_below(6));
    const auto qname = random_name();
    msg.questions.push_back(
        {qname, rng.chance(0.5) ? RrType::kA : RrType::kAaaa});
    const int answers = static_cast<int>(rng.next_below(4));
    for (int i = 0; i < answers; ++i) {
      msg.answers.push_back(random_record(rng.chance(0.7) ? qname : random_name()));
    }
    const int extra = static_cast<int>(rng.next_below(3));
    for (int i = 0; i < extra; ++i) {
      msg.additionals.push_back(random_record(random_name()));
    }

    const auto wire = msg.encode();
    const auto decoded = DnsMessage::decode(wire);
    ASSERT_TRUE(decoded.ok()) << "iteration " << iteration << ": "
                              << decoded.error();
    EXPECT_EQ(decoded.value(), msg) << "iteration " << iteration;
    ASSERT_TRUE(DnsMessage::decode_into(wire, scratch)) << "iteration "
                                                        << iteration;
    EXPECT_EQ(scratch, msg) << "iteration " << iteration;
  }
}

// Property: decoding arbitrary random bytes never crashes (it may fail).
TEST(DnsMessageTest, FuzzDecodeNeverCrashes) {
  Rng rng{7};
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<std::uint8_t> junk(rng.next_below(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)DnsMessage::decode(junk);  // must not crash/UB
  }
}

// ---------------------------------------------------------- test params ----

TEST(TestParamsTest, ParseDelayLabels) {
  const auto name = DnsName::must_parse("n42x.d250-aaaa.test.lab");
  const auto params = parse_test_params(name);
  ASSERT_TRUE(params);
  EXPECT_EQ(params->nonce, "42x");
  EXPECT_EQ(params->delay_for(RrType::kAaaa), ms(250));
  EXPECT_EQ(params->delay_for(RrType::kA), ms(0));
}

TEST(TestParamsTest, AllTypesDelay) {
  const auto params =
      parse_test_params(DnsName::must_parse("d100-all.d50-a.t.lab"));
  ASSERT_TRUE(params);
  EXPECT_EQ(params->delay_for(RrType::kA), ms(150));
  EXPECT_EQ(params->delay_for(RrType::kAaaa), ms(100));
}

TEST(TestParamsTest, RepeatedTypeDelaysAdd) {
  const auto params = parse_test_params(
      DnsName::must_parse("d100-aaaa.d20-a.d50-aaaa.d5-all.t.lab"));
  ASSERT_TRUE(params);
  EXPECT_EQ(params->delay_count, 2u);
  EXPECT_EQ(params->delay_for(RrType::kAaaa), ms(155));
  EXPECT_EQ(params->delay_for(RrType::kA), ms(25));
  EXPECT_EQ(params->delay_for(RrType::kNs), ms(5));
  EXPECT_TRUE(params->nonce.empty());
}

TEST(TestParamsTest, NoParamsReturnsNullopt) {
  EXPECT_FALSE(parse_test_params(DnsName::must_parse("www.example.com")));
  // "dns" starts with d but is not a delay label; "news" is not a nonce.
  EXPECT_FALSE(parse_test_params(DnsName::must_parse("dns.news-x.example")));
}

TEST(TestParamsTest, MakeTestNameRoundTrip) {
  const auto base = DnsName::must_parse("cad.he.lab");
  const auto name = make_test_name(base, "7f3", {{RrType::kAaaa, ms(300)}});
  EXPECT_TRUE(name.is_subdomain_of(base));
  const auto params = parse_test_params(name);
  ASSERT_TRUE(params);
  EXPECT_EQ(params->nonce, "7f3");
  EXPECT_EQ(params->delay_for(RrType::kAaaa), ms(300));
}

TEST(TestParamsTest, DelayLabelsAboveOneDayAreNotDelays) {
  // One day is the largest delay a label carries.
  const auto day = parse_test_params(DnsName::must_parse("d86400000-a.x.lab"));
  ASSERT_TRUE(day);
  EXPECT_EQ(day->delay_for(RrType::kA), sec(86400));
  // Past it the label is no delay label: before the cap these overflowed
  // ms()'s multiply (10^13 ms) or wrapped to a negative delay (> INT64_MAX).
  for (const char* text :
       {"d86400001-a.x.lab", "d10000000000000-aaaa.x.lab",
        "d9223372036854775808-a.x.lab", "d18446744073709551615-all.x.lab",
        "d99999999999999999999-a.x.lab"}) {
    EXPECT_FALSE(parse_test_params(DnsName::must_parse(text))) << text;
  }
  // Such a label beside a real one leaves the real one's delay alone.
  const auto mixed = parse_test_params(
      DnsName::must_parse("n7.d10000000000000-aaaa.d250-aaaa.x.lab"));
  ASSERT_TRUE(mixed);
  EXPECT_EQ(mixed->delay_for(RrType::kAaaa), ms(250));
  // The most max-delay labels a 255-octet name holds still sum in range.
  std::string text;
  int labels = 0;
  for (; text.size() + 14 + 3 <= 253; ++labels) text += "d86400000-all.";
  text += "lab";
  const auto summed = parse_test_params(DnsName::must_parse(text));
  ASSERT_TRUE(summed);
  EXPECT_EQ(summed->delay_for(RrType::kA), sec(86400) * labels);
  EXPECT_GT(summed->delay_for(RrType::kA), SimTime{0});
}

TEST(TestParamsTest, NonceMakesNamesUnique) {
  const auto base = DnsName::must_parse("t.lab");
  const auto n1 = make_test_name(base, "1", {});
  const auto n2 = make_test_name(base, "2", {});
  EXPECT_NE(n1, n2);
}

// ------------------------------------------- reuse-friendly entry points ----

// A compression-heavy message: shared suffixes across all sections.
DnsMessage sample_referral() {
  DnsMessage msg;
  msg.header.id = 0x1234;
  msg.header.qr = true;
  const auto qname = DnsName::must_parse("www.example.lab");
  const auto zone = DnsName::must_parse("example.lab");
  const auto ns1 = DnsName::must_parse("ns1.example.lab");
  const auto ns2 = DnsName::must_parse("ns2.example.lab");
  msg.questions.push_back({qname, RrType::kA});
  msg.authorities.push_back(ResourceRecord::ns(zone, ns1));
  msg.authorities.push_back(ResourceRecord::ns(zone, ns2));
  msg.additionals.push_back(
      ResourceRecord::a(ns1, *Ipv4Address::parse("10.0.0.1")));
  msg.additionals.push_back(
      ResourceRecord::a(ns2, *Ipv4Address::parse("10.0.0.2")));
  return msg;
}

TEST(DnsMessageTest, EncodeIntoBufferMatchesLegacyEncode) {
  const DnsMessage msg = sample_referral();
  const std::vector<std::uint8_t> legacy = msg.encode();

  simnet::BufferPool pool;
  simnet::Buffer buffer{&pool};
  NameCompressor compressor;
  msg.encode_into(buffer, compressor);
  ASSERT_EQ(buffer.size(), legacy.size());
  EXPECT_TRUE(std::equal(buffer.begin(), buffer.end(), legacy.begin()));

  // Reusing the same buffer + compressor for a different message must give
  // exactly what a fresh encode gives (scratch state fully resets).
  const DnsMessage query = fixtures::query(
      7, DnsName::must_parse("other.zone.lab"), RrType::kAaaa, true);
  msg.encode_into(buffer, compressor);  // dirty the scratch
  query.encode_into(buffer, compressor);
  const std::vector<std::uint8_t> fresh = query.encode();
  ASSERT_EQ(buffer.size(), fresh.size());
  EXPECT_TRUE(std::equal(buffer.begin(), buffer.end(), fresh.begin()));
}

TEST(DnsMessageTest, DecodeIntoReusesTheScratchMessage) {
  const DnsMessage first = sample_referral();
  const DnsMessage second =
      fixtures::query(42, DnsName::must_parse("q.lab"), RrType::kAaaa);

  DnsMessage scratch;
  ASSERT_TRUE(DnsMessage::decode_into(first.encode(), scratch));
  EXPECT_EQ(scratch, DnsMessage::decode(first.encode()).value());
  // Decoding a smaller message into the same scratch leaves no residue.
  ASSERT_TRUE(DnsMessage::decode_into(second.encode(), scratch));
  EXPECT_EQ(scratch, DnsMessage::decode(second.encode()).value());
  EXPECT_TRUE(scratch.answers.empty());
  EXPECT_TRUE(scratch.authorities.empty());

  // Failure still reports false through the reuse path.
  const std::vector<std::uint8_t> garbage{0x01, 0x02, 0x03};
  EXPECT_FALSE(DnsMessage::decode_into(garbage, scratch));
}

TEST(DnsMessageTest, BufferRoundTripThroughWireAndBack) {
  const DnsMessage msg = sample_referral();
  simnet::BufferPool pool;
  simnet::Buffer wire{&pool};
  NameCompressor compressor;
  msg.encode_into(wire, compressor);

  DnsMessage decoded;
  ASSERT_TRUE(DnsMessage::decode_into(wire, decoded));  // Buffer -> span
  EXPECT_EQ(decoded, msg);
}

// ------------------------------------- fault-injection shared corpus ----
// The same seeded mutators the conformance layer's injector applies to live
// responses (conformance/fault.h): decode_into must reject or survive every
// corpus member without crashing, and the scratch message must stay reusable
// for pristine wires afterwards.

TEST(DnsMessageTest, DecodeIntoSurvivesTruncationCorpus) {
  const std::vector<std::uint8_t> pristine = sample_referral().encode();
  SplitMix64 rng{conformance::FaultPlan{
      conformance::FaultKind::kDnsTruncate}.rng_seed()};
  DnsMessage scratch;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> wire = pristine;
    conformance::truncate_wire(wire, rng);
    ASSERT_LT(wire.size(), pristine.size()) << "iteration " << i;
    (void)DnsMessage::decode_into(wire, scratch);  // must not crash/UB
    // The scratch stays usable for the next (pristine) decode.
    ASSERT_TRUE(DnsMessage::decode_into(pristine, scratch)) << "iteration " << i;
    EXPECT_EQ(scratch, sample_referral());
  }
}

TEST(DnsMessageTest, DecodeIntoSurvivesCorruptionCorpus) {
  const std::vector<std::uint8_t> pristine = sample_referral().encode();
  SplitMix64 rng{conformance::FaultPlan{
      conformance::FaultKind::kDnsCorrupt}.rng_seed()};
  DnsMessage scratch;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> wire = pristine;
    conformance::corrupt_wire(wire, rng);
    ASSERT_EQ(wire.size(), pristine.size());
    if (DnsMessage::decode_into(wire, scratch)) {
      // A surviving decode must be internally consistent enough to re-encode.
      (void)scratch.encode();
    }
    ASSERT_TRUE(DnsMessage::decode_into(pristine, scratch)) << "iteration " << i;
  }
}

TEST(DnsMessageTest, DecodeIntoSurvivesGarbageCorpus) {
  SplitMix64 rng{12345};
  DnsMessage scratch;
  for (int i = 0; i < 500; ++i) {
    const std::vector<std::uint8_t> junk = conformance::garbage_wire(rng);
    (void)DnsMessage::decode_into(junk, scratch);  // must not crash/UB
  }
  ASSERT_TRUE(DnsMessage::decode_into(sample_referral().encode(), scratch));
  EXPECT_EQ(scratch, sample_referral());
}

TEST(DnsMessageTest, MutatorsAreSeedDeterministic) {
  const std::vector<std::uint8_t> pristine = sample_message().encode();
  for (const auto kind : {conformance::FaultKind::kDnsTruncate,
                          conformance::FaultKind::kDnsCorrupt}) {
    conformance::FaultPlan plan{kind, /*seed=*/9, /*stream=*/3, /*index=*/7};
    SplitMix64 a{plan.rng_seed()};
    SplitMix64 b{plan.rng_seed()};
    std::vector<std::uint8_t> wa = pristine;
    std::vector<std::uint8_t> wb = pristine;
    if (kind == conformance::FaultKind::kDnsTruncate) {
      conformance::truncate_wire(wa, a);
      conformance::truncate_wire(wb, b);
    } else {
      conformance::corrupt_wire(wa, a);
      conformance::corrupt_wire(wb, b);
    }
    EXPECT_EQ(wa, wb) << conformance::fault_kind_name(kind);
    EXPECT_NE(wa, pristine) << conformance::fault_kind_name(kind);
  }
}

// ------------------------------------------------ decoder behaviour pin ----
// Two crc32 digests over the seeded malformed corpus pin what the decoder
// does with every input: which messages it accepts, the error string of
// each rejection, the re-encoded bytes of each acceptance, and, for a name
// decoded at every offset of every input, whether it parses, where the
// reader stops and the name it yields. A decoder rewrite must leave both
// digests unchanged: same inputs accepted, same values decoded.

/// Every pristine response, 100 seeded truncations and 100 seeded
/// corruptions of each, and 500 garbage datagrams.
std::vector<std::vector<std::uint8_t>> decoder_digest_corpus() {
  std::vector<std::vector<std::uint8_t>> pristine = fixtures::lab_responses();
  pristine.push_back(sample_message().encode());
  pristine.push_back(sample_referral().encode());
  std::vector<std::vector<std::uint8_t>> corpus = pristine;
  SplitMix64 truncate{conformance::FaultPlan{
      conformance::FaultKind::kDnsTruncate}.rng_seed()};
  SplitMix64 corrupt{conformance::FaultPlan{
      conformance::FaultKind::kDnsCorrupt}.rng_seed()};
  for (const auto& wire : pristine) {
    for (int i = 0; i < 100; ++i) {
      corpus.push_back(wire);
      conformance::truncate_wire(corpus.back(), truncate);
      corpus.push_back(wire);
      conformance::corrupt_wire(corpus.back(), corrupt);
    }
  }
  SplitMix64 garbage{12345};
  for (int i = 0; i < 500; ++i) {
    corpus.push_back(conformance::garbage_wire(garbage));
  }
  return corpus;
}

TEST(DnsMessageTest, DecoderBehaviourOnTheMalformedCorpusIsPinned) {
  std::uint32_t messages = util::crc32_init();
  std::uint32_t names = util::crc32_init();
  const auto feed = [](std::uint32_t& state, std::string_view bytes) {
    state = util::crc32_update(
        state, reinterpret_cast<const unsigned char*>(bytes.data()),
        bytes.size());
  };
  std::size_t accepted = 0;
  DnsMessage scratch;
  for (const std::vector<std::uint8_t>& input : decoder_digest_corpus()) {
    std::string record;
    const auto decoded = DnsMessage::decode(input);
    wire::put_u8(record, decoded.ok() ? 1 : 0);
    if (decoded.ok()) {
      ++accepted;
      const std::vector<std::uint8_t> reencoded = decoded.value().encode();
      wire::put_u32(record, static_cast<std::uint32_t>(reencoded.size()));
      wire::put_bytes(record, reencoded);
    } else {
      wire::put_str(record, decoded.error());
    }
    feed(messages, record);
    // The in-place path agrees with the one-shot path on every input.
    ASSERT_EQ(DnsMessage::decode_into(input, scratch), decoded.ok());
    if (decoded.ok()) {
      EXPECT_EQ(scratch, decoded.value());
    }

    for (std::size_t offset = 0; offset < input.size(); ++offset) {
      record.clear();
      wire::Reader r{input};
      r.seek(offset);
      const DnsName name = decode_name(r);
      wire::put_u8(record, r.ok ? 1 : 0);
      if (r.ok) {
        wire::put_u16(record, static_cast<std::uint16_t>(r.pos));
        wire::put_u8(record, static_cast<std::uint8_t>(name.label_count()));
        std::vector<std::uint8_t> bytes;
        name.encode(bytes, nullptr);
        wire::put_bytes(record, bytes);
      } else {
        EXPECT_TRUE(name.is_root());
      }
      feed(names, record);
    }
  }
  // 181 since SVCB/HTTPS rdata with out-of-order or repeated SvcParam keys
  // fails the record (RFC 9460 §2.2); 187 were accepted before.
  EXPECT_EQ(accepted, 181u);
  EXPECT_EQ(util::crc32_final(messages), 0x10bc1181u);
  EXPECT_EQ(util::crc32_final(names), 0x5fb2ca14u);
}

TEST(DnsNameTest, DecodePreservesCaseInsensitivity) {
  // Mixed-case labels on the wire land lowercased (in-place decode path).
  std::vector<std::uint8_t> out;
  for (const std::string_view label : {"WwW", "ExAmPlE", "LaB"}) {
    wire::put_u8(out, static_cast<std::uint8_t>(label.size()));
    wire::put_bytes(out, label);
  }
  wire::put_u8(out, 0);
  // "MaIl" plus a pointer to "ExAmPlE.LaB" at offset 4.
  wire::put_u8(out, 4);
  wire::put_bytes(out, std::string_view{"MaIl"});
  wire::put_u16(out, 0xC000 | 4);
  wire::Reader r{out};
  const DnsName www = decode_name(r);
  const DnsName mail = decode_name(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(www, DnsName::must_parse("www.example.lab"));
  EXPECT_EQ(mail, DnsName::must_parse("mail.example.lab"));
  EXPECT_EQ(mail <=> DnsName::must_parse("MAIL.example.LAB"),
            std::strong_ordering::equal);
  EXPECT_TRUE(mail.is_subdomain_of(DnsName::must_parse("Example.Lab")));
}

}  // namespace
}  // namespace lazyeye::dns
