#include "conformance/record_codec.h"

#include <cstddef>

namespace lazyeye::conformance {

namespace {

/// One encoded verdict: rule, outcome, kind and family bytes, the count,
/// and the two durations.
constexpr std::size_t kVerdictBytes = 4 + 4 + 8 + 8;

}  // namespace

void encode_record(const ConformanceRecord& record, std::string& out,
                   bool with_schedule) {
  wire::put_str(out, record.client);
  encode_plan(record.fault, out);
  // Compound-schedule cells carry the schedule inline (length-prefixed so
  // the record decoder can delegate to the schedule codec).
  if (with_schedule && record.schedule) {
    wire::put_u8(out, 1);
    wire::put_str(out, encode_schedule(*record.schedule));
  } else {
    wire::put_u8(out, 0);
  }
  wire::put_u32(out, static_cast<std::uint32_t>(record.fetches));
  wire::put_u8(out, record.fetch_ok ? 1 : 0);
  wire::put_u8(out, record.first_fetch_ok ? 1 : 0);
  wire::put_u8(out, static_cast<std::uint8_t>(record.verdicts.size()));
  for (const Verdict& verdict : record.verdicts) {
    const Evidence& e = verdict.evidence;
    wire::put_u8(out, static_cast<std::uint8_t>(verdict.rule));
    wire::put_u8(out, static_cast<std::uint8_t>(verdict.outcome));
    wire::put_u8(out, static_cast<std::uint8_t>(e.kind));
    wire::put_u8(out, static_cast<std::uint8_t>(e.family));
    wire::put_u32(out, e.count);
    wire::put_u64(out, static_cast<std::uint64_t>(e.time.count()));
    wire::put_u64(out, static_cast<std::uint64_t>(e.bound.count()));
  }
}

bool decode_record(wire::Reader& in, ConformanceRecord& record) {
  record.client = in.str();
  if (!decode_plan(in, record.fault)) return false;
  const std::uint8_t has_schedule = in.u8();
  if (has_schedule > 1) return false;
  if (has_schedule == 1) {
    auto schedule = decode_schedule(in.str_view());
    if (!schedule) return false;
    record.schedule = std::move(*schedule);
  }
  record.fetches = static_cast<int>(in.u32());
  record.fetch_ok = in.u8() != 0;
  record.first_fetch_ok = in.u8() != 0;
  const std::uint8_t verdict_count = in.u8();
  // Verdicts have a fixed size, so the bytes left bound the count before
  // anything is reserved.
  if (!in.ok || verdict_count > in.remaining() / kVerdictBytes) return false;
  record.verdicts.reserve(verdict_count);
  for (std::uint8_t i = 0; i < verdict_count; ++i) {
    const std::uint8_t rule = in.u8();
    const std::uint8_t outcome = in.u8();
    const std::uint8_t kind = in.u8();
    const std::uint8_t family = in.u8();
    if (rule >= kRuleCount ||
        outcome > static_cast<std::uint8_t>(RuleOutcome::kInapplicable) ||
        kind >= kEvidenceKindCount ||
        family > static_cast<std::uint8_t>(simnet::Family::kIpv6)) {
      return false;
    }
    Verdict verdict{static_cast<RuleId>(rule),
                    static_cast<RuleOutcome>(outcome),
                    {.kind = static_cast<EvidenceKind>(kind),
                     .family = static_cast<simnet::Family>(family)}};
    verdict.evidence.count = in.u32();
    verdict.evidence.time = SimTime{static_cast<std::int64_t>(in.u64())};
    verdict.evidence.bound = SimTime{static_cast<std::int64_t>(in.u64())};
    record.verdicts.push_back(verdict);
  }
  return in.ok;
}

std::optional<ConformanceRecord> decode_record(std::string_view bytes) {
  wire::Reader in{bytes};
  ConformanceRecord record;
  if (!decode_record(in, record) || !in.exhausted()) return std::nullopt;
  return record;
}

}  // namespace lazyeye::conformance
