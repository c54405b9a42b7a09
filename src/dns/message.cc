#include "dns/message.h"

#include <array>


namespace lazyeye::dns {

namespace {
constexpr std::uint16_t kClassIn = 1;

// Smallest wire form of a question (root name, type, class) and of a record
// (root name, type, class, TTL, RDLENGTH): a section count above
// remaining / minimum cannot be carried by the bytes that follow.
constexpr std::size_t kMinQuestionBytes = 5;
constexpr std::size_t kMinRecordBytes = 11;

/// Appends `values` as big-endian u16s with one insert: the fixed-width
/// fields of a header, question or record go out together.
template <std::size_t N>
void put_u16s(std::vector<std::uint8_t>& out,
              const std::array<std::uint16_t, N>& values) {
  std::array<std::uint8_t, 2 * N> bytes;
  for (std::size_t i = 0; i < N; ++i) {
    bytes[2 * i] = static_cast<std::uint8_t>(values[i] >> 8);
    bytes[2 * i + 1] = static_cast<std::uint8_t>(values[i] & 0xFF);
  }
  out.insert(out.end(), bytes.begin(), bytes.end());
}

void encode_record(const ResourceRecord& rr, std::vector<std::uint8_t>& out,
                   NameCompressor* compression) {
  rr.name.encode(out, compression);
  // For OPT the class field carries the advertised UDP payload size.
  std::uint16_t klass = kClassIn;
  if (rr.type == RrType::kOpt) {
    const auto* opt = std::get_if<OptRdata>(&rr.rdata);
    klass = opt != nullptr ? opt->udp_payload_size : 1232;
  }
  const std::size_t len_at = out.size() + 8;
  put_u16s<5>(out, {static_cast<std::uint16_t>(rr.type), klass,
                    static_cast<std::uint16_t>(rr.ttl >> 16),
                    static_cast<std::uint16_t>(rr.ttl & 0xFFFF),
                    0});  // placeholder rdlength
  encode_rdata(rr, out, compression);
  wire::set_u16(out, len_at,
                static_cast<std::uint16_t>(out.size() - len_at - 2));
}

bool decode_record(wire::Reader& r, ResourceRecord& rr) {
  DnsName::decode_into(r, rr.name);
  const std::uint16_t type = r.u16();
  const std::uint16_t klass = r.u16();
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  if (!r.ok) return false;
  const std::size_t end = r.pos + rdlength;
  rr.type = static_cast<RrType>(type);
  decode_rdata(rr.type, rdlength, r, rr.rdata);
  if (rr.type == RrType::kOpt) {
    std::get<OptRdata>(rr.rdata).udp_payload_size = klass;
  }
  if (!r.ok) return false;
  // Tolerate rdata decoders that did not consume exactly rdlength (e.g.
  // unknown trailing params) but never read past it.
  if (r.pos > end) return false;
  r.seek(end);
  return r.ok;
}

}  // namespace

const char* rcode_name(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError: return "NOERROR";
    case Rcode::kFormErr: return "FORMERR";
    case Rcode::kServFail: return "SERVFAIL";
    case Rcode::kNxDomain: return "NXDOMAIN";
    case Rcode::kNotImp: return "NOTIMP";
    case Rcode::kRefused: return "REFUSED";
  }
  return "RCODE?";
}

std::vector<std::uint8_t> DnsMessage::encode() const {
  std::vector<std::uint8_t> out;
  NameCompressor compression;
  encode_into(out, compression);
  return out;
}

void DnsMessage::encode_into(simnet::Buffer& out,
                             NameCompressor& compression) const {
  // DNS messages always exceed the Buffer's inline capacity (12-byte header
  // + question), so serialise straight into the (pooled) heap block.
  std::vector<std::uint8_t>& storage = out.heap_storage();
  storage.clear();
  encode_into(storage, compression);
}

void DnsMessage::encode_into(std::vector<std::uint8_t>& out,
                             NameCompressor& compression) const {
  compression.clear();

  std::uint16_t flags = 0;
  if (header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((header.opcode & 0x0F) << 11);
  if (header.aa) flags |= 0x0400;
  if (header.tc) flags |= 0x0200;
  if (header.rd) flags |= 0x0100;
  if (header.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(header.rcode) & 0x0F;
  put_u16s<6>(out, {header.id, flags,
                    static_cast<std::uint16_t>(questions.size()),
                    static_cast<std::uint16_t>(answers.size()),
                    static_cast<std::uint16_t>(authorities.size()),
                    static_cast<std::uint16_t>(additionals.size())});

  for (const Question& q : questions) {
    q.name.encode(out, &compression);
    put_u16s<2>(out, {static_cast<std::uint16_t>(q.type), kClassIn});
  }
  for (const auto& rr : answers) encode_record(rr, out, &compression);
  for (const auto& rr : authorities) encode_record(rr, out, &compression);
  for (const auto& rr : additionals) encode_record(rr, out, &compression);
}

namespace {

/// Shared parse body; returns nullptr on success, an error literal on
/// failure. Fills `msg` in place so callers can reuse its section capacity.
const char* decode_message(std::span<const std::uint8_t> bytes,
                           DnsMessage& msg) {
  wire::Reader r{bytes};
  msg.header = DnsHeader{};
  // Sections are *resized* to the wire counts, not cleared: surviving
  // elements (and the name/label buffers inside them) are decoded into in
  // place, so a scratch DnsMessage parses packet after packet without
  // allocating once its high-water capacity is reached. Each count is first
  // checked against the bytes left, so a lying header costs an error, never
  // storage proportional to the count.

  msg.header.id = r.u16();
  const std::uint16_t flags = r.u16();
  msg.header.qr = (flags & 0x8000) != 0;
  msg.header.opcode = static_cast<std::uint8_t>((flags >> 11) & 0x0F);
  msg.header.aa = (flags & 0x0400) != 0;
  msg.header.tc = (flags & 0x0200) != 0;
  msg.header.rd = (flags & 0x0100) != 0;
  msg.header.ra = (flags & 0x0080) != 0;
  msg.header.rcode = static_cast<Rcode>(flags & 0x0F);

  const std::uint16_t qdcount = r.u16();
  const std::uint16_t ancount = r.u16();
  const std::uint16_t nscount = r.u16();
  const std::uint16_t arcount = r.u16();
  if (!r.ok) return "truncated header";

  if (qdcount > r.remaining() / kMinQuestionBytes) return "truncated question";
  msg.questions.resize(qdcount);
  for (Question& q : msg.questions) {
    DnsName::decode_into(r, q.name);
    q.type = static_cast<RrType>(r.u16());
    r.u16();  // class
    if (!r.ok) return "truncated question";
  }

  auto read_section = [&](std::vector<ResourceRecord>& out,
                          std::uint16_t count) -> bool {
    if (count > r.remaining() / kMinRecordBytes) return false;
    out.resize(count);
    for (ResourceRecord& rr : out) {
      if (!decode_record(r, rr)) return false;
    }
    return true;
  };
  if (!read_section(msg.answers, ancount)) {
    return "truncated answer section";
  }
  if (!read_section(msg.authorities, nscount)) {
    return "truncated authority section";
  }
  if (!read_section(msg.additionals, arcount)) {
    return "truncated additional section";
  }
  return nullptr;
}

}  // namespace

Result<DnsMessage> DnsMessage::decode(std::span<const std::uint8_t> wire) {
  DnsMessage msg;
  if (const char* error = decode_message(wire, msg)) {
    return Result<DnsMessage>::failure(error);
  }
  return msg;
}

bool DnsMessage::decode_into(std::span<const std::uint8_t> wire,
                             DnsMessage& out) {
  return decode_message(wire, out) == nullptr;
}

bool DnsMessage::has_answer_for(const DnsName& name, RrType type) const {
  for (const auto& rr : answers) {
    if (rr.type == type && rr.name == name) return true;
  }
  return false;
}

void DnsMessage::addresses_for_into(const DnsName& name, RrType type,
                                    std::vector<simnet::IpAddress>& out) const {
  out.clear();
  // Chase the cursor by pointer: CNAME targets live in the answer section, so
  // no per-hop DnsName copy is needed.
  const DnsName* current = &name;
  // Chase CNAMEs inside the message (bounded by the answer count).
  for (std::size_t hops = 0; hops <= answers.size(); ++hops) {
    bool chased = false;
    for (const auto& rr : answers) {
      if (rr.name != *current) continue;
      if (rr.type == type) {
        if (const auto addr = rr.address()) out.push_back(*addr);
      } else if (const auto* cn = std::get_if<CnameRdata>(&rr.rdata)) {
        current = &cn->target;
        chased = true;
      }
    }
    if (!chased || !out.empty()) break;
  }
}

}  // namespace lazyeye::dns
