// DNS message: header + sections, RFC 1035 wire encode/decode.
//
// The codec reads through wire::Reader and writes through the wire::put_*
// helpers (util/wire.h). Its reuse-friendly entry points serve the hot
// send/receive paths: encode_into() serialises into a caller-owned pooled
// Buffer with a reusable NameCompressor, and decode_into() parses into an
// existing message so section vectors keep their capacity across packets.
// Decoding is bounded by the input: a section count that the remaining
// bytes cannot carry is rejected before any section storage grows.
// encode()/decode() remain as one-shot conveniences on top of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/rr.h"
#include "simnet/buffer.h"
#include "util/result.h"

namespace lazyeye::dns {

enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

const char* rcode_name(Rcode rcode);

struct DnsHeader {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  std::uint8_t opcode = 0;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = false;  // recursion desired
  bool ra = false;  // recursion available
  Rcode rcode = Rcode::kNoError;

  bool operator==(const DnsHeader&) const = default;
};

struct Question {
  DnsName name;
  RrType type = RrType::kA;
  // Class is always IN for this library.

  bool operator==(const Question&) const = default;
};

struct DnsMessage {
  DnsHeader header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  bool operator==(const DnsMessage&) const = default;

  /// Serialises to RFC 1035 wire format (with name compression).
  std::vector<std::uint8_t> encode() const;

  /// Appends the wire form to `out` using `compression` as scratch (cleared
  /// here). Hot paths hand in reused storage plus a retained compressor so a
  /// steady-state encode performs no allocations beyond first-use growth.
  void encode_into(std::vector<std::uint8_t>& out,
                   NameCompressor& compression) const;

  /// Serialises into `out` (cleared first). With a pool-backed Buffer the
  /// wire block recycles through the owning Network's BufferPool.
  void encode_into(simnet::Buffer& out, NameCompressor& compression) const;

  /// Parses wire bytes; fails on truncated/garbage input.
  static Result<DnsMessage> decode(std::span<const std::uint8_t> wire);

  /// Parses into `out`, reusing its section vectors' capacity. Returns
  /// false on truncated/garbage input (out is then in an undefined but
  /// destructible/reusable state).
  static bool decode_into(std::span<const std::uint8_t> wire, DnsMessage& out);

  /// True if any answer record matches (qname, qtype).
  bool has_answer_for(const DnsName& name, RrType type) const;

  /// Fills `out` (cleared first) with every A/AAAA address in the answer
  /// section for `name`, following CNAME indirection inside the message. A
  /// reused scratch vector keeps its capacity across responses.
  void addresses_for_into(const DnsName& name, RrType type,
                          std::vector<simnet::IpAddress>& out) const;
};

}  // namespace lazyeye::dns
