#include "conformance/record_codec.h"

#include <cstddef>

#include "util/wire.h"

namespace lazyeye::conformance {

namespace {

/// The smallest encoded verdict: an empty rule and evidence, i.e. two u32
/// length prefixes and the outcome byte.
constexpr std::size_t kMinVerdictBytes = 4 + 1 + 4;

}  // namespace

void encode_record(const ConformanceRecord& record, std::string& out) {
  wire::put_str(out, record.client);
  encode_plan(record.fault, out);
  // Compound-schedule cells carry the schedule inline (length-prefixed so
  // the record decoder can delegate to the schedule codec).
  if (record.schedule) {
    wire::put_u8(out, 1);
    wire::put_str(out, encode_schedule(*record.schedule));
  } else {
    wire::put_u8(out, 0);
  }
  wire::put_u32(out, static_cast<std::uint32_t>(record.fetches));
  wire::put_u8(out, record.fetch_ok ? 1 : 0);
  wire::put_u8(out, record.first_fetch_ok ? 1 : 0);
  wire::put_u32(out, static_cast<std::uint32_t>(record.verdicts.size()));
  for (const Verdict& verdict : record.verdicts) {
    wire::put_str(out, verdict.rule);
    wire::put_u8(out, static_cast<std::uint8_t>(verdict.outcome));
    wire::put_str(out, verdict.evidence);
  }
}

std::optional<ConformanceRecord> decode_record(std::string_view bytes) {
  wire::Reader in{bytes};
  ConformanceRecord record;
  record.client = in.str();
  if (!decode_plan(in, record.fault)) return std::nullopt;
  const std::uint8_t has_schedule = in.u8();
  if (has_schedule > 1) return std::nullopt;
  if (has_schedule == 1) {
    auto schedule = decode_schedule(in.str());
    if (!schedule) return std::nullopt;
    record.schedule = std::move(*schedule);
  }
  record.fetches = static_cast<int>(in.u32());
  record.fetch_ok = in.u8() != 0;
  record.first_fetch_ok = in.u8() != 0;
  const std::uint32_t verdict_count = in.u32();
  // A verdict takes at least kMinVerdictBytes, so the bytes left bound the
  // count before anything is reserved.
  if (!in.ok || verdict_count > 1024 ||
      verdict_count > in.remaining() / kMinVerdictBytes) {
    return std::nullopt;
  }
  record.verdicts.reserve(verdict_count);
  for (std::uint32_t i = 0; i < verdict_count; ++i) {
    Verdict verdict;
    verdict.rule = in.str();
    const std::uint8_t outcome = in.u8();
    if (outcome > static_cast<std::uint8_t>(RuleOutcome::kInapplicable)) {
      return std::nullopt;
    }
    verdict.outcome = static_cast<RuleOutcome>(outcome);
    verdict.evidence = in.str();
    record.verdicts.push_back(std::move(verdict));
  }
  if (!in.exhausted()) return std::nullopt;
  return record;
}

}  // namespace lazyeye::conformance
