// Wire codec for ConformanceRecord — the journal payload of crash-safe
// conformance campaigns (campaign/journal_sink.h) and the unit the sharded
// driver's merge step decodes back into verdict tables.
//
// Big-endian framing via util/wire.h, the codec the DNS wire also uses.
// encode() is a pure function of the record, so two shards (or a crashed
// run and its resume) that executed the same cell produce byte-identical
// journal records — the property the kill-and-resume harness compares.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "conformance/checker.h"

namespace lazyeye::conformance {

/// Serialises `record` (appends to `out`).
void encode_record(const ConformanceRecord& record, std::string& out);

inline std::string encode_record(const ConformanceRecord& record) {
  std::string out;
  encode_record(record, out);
  return out;
}

/// Inverse of encode_record; nullopt on malformed or trailing bytes.
std::optional<ConformanceRecord> decode_record(std::string_view bytes);

}  // namespace lazyeye::conformance
