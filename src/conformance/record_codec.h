// Wire codec for ConformanceRecord — the journal payload of crash-safe
// conformance campaigns (campaign/journal_sink.h), the per-profile unit of
// a hunt candidate's journal record (conformance/search.h), and what the
// sharded driver's merge step decodes back into verdict tables.
//
// Big-endian framing via util/wire.h, the codec the DNS wire also uses:
//
//   record:  str client | plan (schedule.h) | u8 has_schedule
//          | [str schedule] | u32 fetches | u8 fetch_ok | u8 first_fetch_ok
//          | u8 verdict_count | verdict...
//   verdict: u8 rule id | u8 outcome | u8 evidence kind | u8 family
//          | u32 count | u64 time (ns) | u64 bound (ns)
//
// Verdicts are fixed-width values, never text: rule_name() and
// render_evidence() (rules.h) write the words where they leave the program.
// encode() is a pure function of the record, so two shards (or a crashed
// run and its resume) that executed the same cell produce byte-identical
// journal records — the property the kill-and-resume harness compares.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "conformance/checker.h"
#include "util/wire.h"

namespace lazyeye::conformance {

/// Serialises `record` (appends to `out`). With `with_schedule` false the
/// record is written as if it had no schedule: a hunt candidate's records
/// all carry the candidate's schedule, which its decoder restores.
void encode_record(const ConformanceRecord& record, std::string& out,
                   bool with_schedule = true);

inline std::string encode_record(const ConformanceRecord& record) {
  std::string out;
  encode_record(record, out);
  return out;
}

/// Reads one record from `in` into `record`; false on malformed fields (the
/// reader's `ok` tells an underrun apart).
bool decode_record(wire::Reader& in, ConformanceRecord& record);

/// Inverse of encode_record; nullopt on malformed or trailing bytes.
std::optional<ConformanceRecord> decode_record(std::string_view bytes);

}  // namespace lazyeye::conformance
