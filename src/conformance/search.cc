#include "conformance/search.h"

#include <array>
#include <bitset>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "campaign/journal.h"
#include "campaign/runner.h"
#include "campaign/sink.h"
#include "conformance/record_codec.h"
#include "util/strings.h"
#include "util/wire.h"

namespace lazyeye::conformance {

namespace {

/// Stream id of hunt-generated schedules; keeps them off any stream a
/// hand-built schedule campaign is likely to use.
constexpr std::uint32_t kHuntStream = 0xFA;

/// Mutation cap: schedules never grow past this many entries (plan index
/// slots allow 16; see FaultSchedule::generate).
constexpr std::size_t kMaxMutatedEntries = 8;

// Coverage element layout (search.h): the tag in the top two bits; verdict
// and fetch elements put the profile index at bit 32; a diff element puts
// its rule at bit 56 and profile p's symbol at bits 2p and 2p+1.
constexpr unsigned kTagShift = 62;
constexpr std::uint64_t kVerdictTag = 0;
constexpr std::uint64_t kFetchTag = 1;
constexpr std::uint64_t kDiffTag = 2;
constexpr unsigned kProfileShift = 32;
constexpr unsigned kDiffRuleShift = 56;
static_assert(2 * kMaxHuntProfiles <= kDiffRuleShift);
static_assert(kRuleCount <= 1u << (kTagShift - kDiffRuleShift));

/// A diff element's code for a profile with no verdict on the rule; the
/// other codes are RuleOutcome's values.
constexpr std::uint64_t kNoVerdictCode = 3;

std::uint64_t verdict_element(std::size_t profile, const Verdict& v) {
  const Evidence& e = v.evidence;
  const unsigned printed = evidence_durations(e.kind);
  const std::uint64_t time_shape =
      (printed & 1) != 0 ? lazyeye::duration_shape(e.time) : 0;
  const std::uint64_t bound_shape =
      (printed & 2) != 0 ? lazyeye::duration_shape(e.bound) : 0;
  return kVerdictTag << kTagShift |
         static_cast<std::uint64_t>(profile) << kProfileShift |
         static_cast<std::uint64_t>(v.rule) << 24 |
         static_cast<std::uint64_t>(v.outcome) << 16 |
         static_cast<std::uint64_t>(e.kind) << 8 | bound_shape << 4 |
         time_shape;
}

int total_violations(const std::vector<ConformanceRecord>& records) {
  int n = 0;
  for (const ConformanceRecord& record : records) n += record.violations();
  return n;
}

/// The exact set of (profile, rule) pairs that violate — the invariant
/// delta-minimization preserves.
using ViolationKey = std::bitset<kMaxHuntProfiles * kRuleCount>;

ViolationKey violation_key(const std::vector<ConformanceRecord>& records) {
  ViolationKey key;
  for (std::size_t p = 0; p < records.size(); ++p) {
    for (const Verdict& v : records[p].verdicts) {
      if (v.outcome == RuleOutcome::kViolate) {
        key.set(p * kRuleCount + static_cast<std::size_t>(v.rule));
      }
    }
  }
  return key;
}

FaultSchedule mutate_schedule(const FaultSchedule& base, SplitMix64& rng,
                              std::uint64_t seed, std::uint32_t index) {
  FaultSchedule m = base;
  m.seed = seed;
  m.stream = kHuntStream;
  m.index = index;
  switch (rng.next() % 4) {
    case 0:  // add an entry (no-op when already at the cap)
      if (m.entries.size() < kMaxMutatedEntries) {
        m.entries.push_back(seeded_entry(
            rng, seed, kHuntStream,
            index * 16 + static_cast<std::uint32_t>(m.entries.size())));
      }
      break;
    case 1:  // drop an entry (schedules never go empty)
      if (m.entries.size() > 1) {
        m.entries.erase(m.entries.begin() +
                        static_cast<std::ptrdiff_t>(rng.next() %
                                                    m.entries.size()));
      }
      break;
    case 2: {  // retime: new window and trigger
      TimedFault& tf = m.entries[rng.next() % m.entries.size()];
      tf.start = sample_window_start(rng);
      tf.duration = sample_window_duration(rng);
      tf.trigger = static_cast<TriggerKind>(rng.next() % kTriggerKindCount);
      break;
    }
    default: {  // retarget: flip family or swap the fault kind
      TimedFault& tf = m.entries[rng.next() % m.entries.size()];
      if ((rng.next() & 1) != 0) {
        tf.plan.target_family =
            tf.plan.target_family == simnet::Family::kIpv6
                ? simnet::Family::kIpv4
                : simnet::Family::kIpv6;
      } else {
        tf.plan.kind =
            static_cast<FaultKind>(1 + rng.next() % (kFaultKindCount - 1));
      }
      break;
    }
  }
  return m;
}

/// Parses a "<prefix><int>" corpus field; the digits must fill the token.
bool parse_field(std::string_view token, std::string_view prefix, int& out) {
  if (!starts_with(token, prefix)) return false;
  const char* last = token.data() + token.size();
  const auto [end, ec] =
      std::from_chars(token.data() + prefix.size(), last, out);
  return ec == std::errc{} && end == last;
}

}  // namespace

// ---- Coverage signature ---------------------------------------------------

std::vector<std::uint64_t> coverage_signature(
    const std::vector<ConformanceRecord>& records) {
  if (records.size() > kMaxHuntProfiles) {
    throw std::invalid_argument(
        "coverage_signature: more records than kMaxHuntProfiles");
  }
  const std::size_t rules =
      records.empty() ? 0 : records.front().verdicts.size();
  std::size_t size = rules;
  for (const ConformanceRecord& record : records) {
    size += record.verdicts.size() + 1;
  }
  std::vector<std::uint64_t> sig;
  sig.reserve(size);
  for (std::size_t p = 0; p < records.size(); ++p) {
    const ConformanceRecord& record = records[p];
    for (const Verdict& v : record.verdicts) {
      sig.push_back(verdict_element(p, v));
    }
    sig.push_back(kFetchTag << kTagShift |
                  static_cast<std::uint64_t>(p) << kProfileShift |
                  (record.first_fetch_ok ? 2u : 0u) |
                  (record.fetch_ok ? 1u : 0u));
  }
  // Cross-client differential: one element per rule with every client's
  // symbol in profile order — a schedule that splits two clients that used
  // to agree is novel even if each individual verdict was seen before.
  for (std::size_t r = 0; r < rules; ++r) {
    std::uint64_t diff =
        kDiffTag << kTagShift |
        static_cast<std::uint64_t>(records.front().verdicts[r].rule)
            << kDiffRuleShift;
    for (std::size_t p = 0; p < records.size(); ++p) {
      const std::uint64_t code =
          r < records[p].verdicts.size()
              ? static_cast<std::uint64_t>(records[p].verdicts[r].outcome)
              : kNoVerdictCode;
      diff |= code << (2 * p);
    }
    sig.push_back(diff);
  }
  return sig;
}

// ---- Hunt internals -------------------------------------------------------

struct FaultHunt::State {
  SplitMix64 rng{0};
  std::set<std::uint64_t> coverage;
  std::vector<CorpusEntry> corpus;
  int violating = 0;
};

struct FaultHunt::Candidate {
  FaultSchedule schedule;
  std::vector<ConformanceRecord> records;  // profile order
  std::optional<FaultSchedule> minimized;  // set when the candidate violates
};

FaultHunt::FaultHunt(HuntOptions options,
                     std::vector<clients::ClientProfile> profiles)
    : options_{std::move(options)},
      profiles_{std::move(profiles)},
      harness_{options_.conformance} {
  if (profiles_.empty()) {
    throw std::invalid_argument("FaultHunt: no client profiles");
  }
  if (profiles_.size() > kMaxHuntProfiles) {
    throw std::invalid_argument(
        lazyeye::str_cat("FaultHunt: ", profiles_.size(),
                         " profiles, more than the ", kMaxHuntProfiles,
                         " a coverage diff element holds"));
  }
  if (options_.budget < 0) {
    throw std::invalid_argument("FaultHunt: negative budget");
  }
  // Corpus entries replay under their schedule's seed, which is the hunt
  // seed: cells evaluated under another world seed could not be replayed.
  if (options_.conformance.seed != options_.seed) {
    throw std::invalid_argument(
        "FaultHunt: conformance.seed must equal the hunt seed");
  }
}

FaultSchedule FaultHunt::propose(State& state, std::uint32_t index) const {
  if (!state.corpus.empty() && (state.rng.next() & 1) != 0) {
    const CorpusEntry& base =
        state.corpus[state.rng.next() % state.corpus.size()];
    return mutate_schedule(base.schedule, state.rng, options_.seed, index);
  }
  return FaultSchedule::generate(options_.seed, kHuntStream, index);
}

std::vector<ConformanceRecord> FaultHunt::evaluate(
    const FaultSchedule& schedule) const {
  // Lazy: each cell's spec, and its copy of the schedule, is built once,
  // when a worker claims the cell.
  const campaign::SpecStream specs{
      profiles_.size(), [this, &schedule](std::size_t i) {
        campaign::ScenarioSpec spec =
            harness_.schedule_spec(profiles_[i], schedule, options_.fetches);
        spec.id = i;
        return spec;
      }};
  campaign::RunnerOptions runner_options;
  runner_options.workers = options_.workers;
  std::vector<ConformanceRecord> records;
  records.reserve(specs.size());
  campaign::CallbackSink<ConformanceRecord> sink{
      [&records](const campaign::ScenarioSpec&, ConformanceRecord record) {
        // The candidate holds the schedule every record would repeat.
        record.schedule.reset();
        records.push_back(std::move(record));
      }};
  campaign::CampaignRunner{runner_options}.run_streaming<ConformanceRecord>(
      specs, [this](const campaign::ScenarioSpec& spec) {
        // Cell i was built from profiles_[i] above.
        return harness_.run_spec(profiles_[spec.id], spec);
      },
      sink);
  return records;
}

FaultSchedule FaultHunt::minimize(
    const FaultSchedule& schedule,
    const std::vector<ConformanceRecord>& baseline) const {
  const ViolationKey key = violation_key(baseline);
  FaultSchedule best = schedule;
  // Pass 1: greedily drop entries while the exact violation set survives.
  bool shrunk = true;
  while (shrunk && best.entries.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < best.entries.size(); ++i) {
      FaultSchedule candidate = best;
      candidate.entries.erase(candidate.entries.begin() +
                              static_cast<std::ptrdiff_t>(i));
      if (violation_key(evaluate(candidate)) == key) {
        best = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  // Pass 2: shrink windows — zero (or halve) starts, bound open windows,
  // halve long ones. Fixed attempt order, no RNG: replaying a minimized
  // schedule never depends on how it was found.
  for (std::size_t i = 0; i < best.entries.size(); ++i) {
    if (best.entries[i].start > SimTime{0}) {
      FaultSchedule candidate = best;
      candidate.entries[i].start = SimTime{0};
      if (violation_key(evaluate(candidate)) == key) {
        best = std::move(candidate);
      } else {
        candidate = best;
        candidate.entries[i].start = best.entries[i].start / 2;
        if (violation_key(evaluate(candidate)) == key) {
          best = std::move(candidate);
        }
      }
    }
    if (best.entries[i].duration <= SimTime{0}) {
      FaultSchedule candidate = best;
      candidate.entries[i].duration = lazyeye::ms(250);
      if (violation_key(evaluate(candidate)) == key) {
        best = std::move(candidate);
      }
    } else if (best.entries[i].duration > lazyeye::ms(50)) {
      FaultSchedule candidate = best;
      candidate.entries[i].duration = best.entries[i].duration / 2;
      if (violation_key(evaluate(candidate)) == key) {
        best = std::move(candidate);
      }
    }
  }
  return best;
}

void FaultHunt::apply(State& state, const Candidate& candidate) const {
  bool novel = false;
  for (const std::uint64_t element : coverage_signature(candidate.records)) {
    novel |= state.coverage.insert(element).second;
  }
  const int violations = total_violations(candidate.records);
  if (violations > 0) ++state.violating;
  if (novel) {
    CorpusEntry entry;
    entry.schedule =
        candidate.minimized ? *candidate.minimized : candidate.schedule;
    entry.violations = violations;
    entry.minimized = candidate.minimized.has_value();
    state.corpus.push_back(std::move(entry));
  }
}

// ---- Candidate codec (journal payload) ------------------------------------

std::string FaultHunt::encode_candidate(const Candidate& candidate) const {
  std::string out;
  wire::put_str(out, encode_schedule(candidate.schedule));
  wire::put_u8(out, candidate.minimized ? 1 : 0);
  if (candidate.minimized) {
    wire::put_str(out, encode_schedule(*candidate.minimized));
  }
  wire::put_u32(out, static_cast<std::uint32_t>(candidate.records.size()));
  for (const ConformanceRecord& record : candidate.records) {
    encode_record(record, out);
  }
  return out;
}

FaultHunt::Candidate FaultHunt::decode_candidate(
    std::string_view bytes) const {
  wire::Reader in{bytes};
  Candidate candidate;
  auto schedule = decode_schedule(in.str_view());
  if (!schedule) {
    throw campaign::JournalError("hunt cell: malformed schedule");
  }
  candidate.schedule = std::move(*schedule);
  const std::uint8_t has_min = in.u8();
  if (has_min > 1) throw campaign::JournalError("hunt cell: bad flags");
  if (has_min == 1) {
    auto minimized = decode_schedule(in.str_view());
    if (!minimized) {
      throw campaign::JournalError("hunt cell: malformed minimized schedule");
    }
    candidate.minimized = std::move(*minimized);
  }
  const std::uint32_t record_count = in.u32();
  if (!in.ok || record_count > kMaxHuntProfiles) {
    throw campaign::JournalError("hunt cell: malformed record list");
  }
  // Records are journaled without the schedule they share with the
  // candidate, and the hunt reads none back: replay folds in verdicts and
  // fetch outcomes only.
  candidate.records.resize(record_count);
  for (ConformanceRecord& record : candidate.records) {
    if (!decode_record(in, record)) {
      throw campaign::JournalError("hunt cell: malformed record");
    }
  }
  if (!in.exhausted()) {
    throw campaign::JournalError("hunt cell: trailing bytes");
  }
  return candidate;
}

// ---- The hunt loop --------------------------------------------------------

HuntResult FaultHunt::run() {
  const auto budget = static_cast<std::uint64_t>(options_.budget);
  const std::uint64_t identity =
      campaign::journal_identity("lazyeye-hunt", budget, options_.seed);

  State state;
  // Proposal stream root: triple-style fold of the hunt seed.
  SplitMix64 mix{options_.seed ^ (0x68756e74ULL /* "hunt" */ *
                                  0x9e3779b97f4a7c15ULL)};
  state.rng = SplitMix64{mix.next()};

  HuntResult result;
  campaign::JournalLoad load;
  // Journaled candidate 0, decoded once: for the profiles check here and
  // for its replay in the loop.
  Candidate first_journaled;
  std::optional<campaign::JournalWriter> writer;
  if (!options_.journal_path.empty()) {
    load = campaign::load_journal(options_.journal_path);
    if (load.exists) {
      if (load.identity != identity) {
        throw campaign::JournalError(
            "hunt journal identity mismatch: different seed/budget");
      }
      // The identity covers only seed and budget; the first candidate's
      // records name the profiles and fetch count the journal was run with.
      if (!load.cells.empty()) {
        first_journaled = decode_candidate(load.cells.front().payload);
        const std::vector<ConformanceRecord>& records =
            first_journaled.records;
        bool same = records.size() == profiles_.size();
        for (std::size_t i = 0; same && i < records.size(); ++i) {
          same = records[i].client == profiles_[i].display_name() &&
                 records[i].fetches == options_.fetches;
        }
        if (!same) {
          throw campaign::JournalError(
              "hunt journal was written for other profiles or fetches");
        }
      }
      result.resumed = !load.cells.empty();
      // A complete journal holds every candidate (load_journal checks).
      if (!load.complete) {
        writer.emplace(campaign::JournalWriter::append(options_.journal_path,
                                                       load.valid_bytes));
      }
    } else {
      writer.emplace(campaign::JournalWriter::create(
          options_.journal_path, identity, /*cell_begin=*/0, budget));
    }
  }

  // A journaled candidate is replayed: its proposal is re-derived (the RNG
  // draws are part of the state transition) and its recorded outcome folded
  // in, with no world re-run. Every later candidate is evaluated, folded in
  // and journaled.
  const std::size_t journaled_count = load.cells.size();
  for (std::uint64_t i = 0; i < budget; ++i) {
    const auto index = static_cast<std::uint32_t>(i);
    const bool journaled = i < journaled_count;
    Candidate candidate;
    if (journaled) {
      candidate = i == 0 ? std::move(first_journaled)
                         : decode_candidate(load.cells[i].payload);
      // Fresh candidates do not run beside the replayed payloads.
      if (i + 1 == journaled_count) load = {};
      if (!(propose(state, index) == candidate.schedule)) {
        throw campaign::JournalError(
            "hunt journal diverges from the deterministic proposal stream");
      }
    } else {
      candidate.schedule = propose(state, index);
      candidate.records = evaluate(candidate.schedule);
      if (total_violations(candidate.records) > 0) {
        candidate.minimized = minimize(candidate.schedule, candidate.records);
      }
    }
    apply(state, candidate);
    if (journaled) continue;
    if (writer) writer->append_cell(i, encode_candidate(candidate));
    if (options_.after_cell) options_.after_cell(static_cast<int>(i));
  }
  if (writer) writer->append_complete(budget);

  result.corpus = std::move(state.corpus);
  result.coverage = std::move(state.coverage);
  result.candidates = options_.budget;
  result.violating_candidates = state.violating;
  return result;
}

// ---- Corpus file ----------------------------------------------------------

std::string FaultHunt::corpus_text(const std::vector<CorpusEntry>& corpus) {
  std::string out = "# lazyeye-hunt corpus v1\n";
  out += lazyeye::str_format("# entries=%zu\n", corpus.size());
  for (const CorpusEntry& entry : corpus) {
    out += lazyeye::str_format("entry violations=%d minimized=%d %s\n",
                               entry.violations, entry.minimized ? 1 : 0,
                               schedule_to_hex(entry.schedule).c_str());
  }
  return out;
}

void FaultHunt::write_corpus(const std::string& path,
                             const std::vector<CorpusEntry>& corpus) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("write_corpus: cannot open " + path);
  }
  const std::string text = corpus_text(corpus);
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const bool closed = std::fclose(file) == 0;
  if (!ok || !closed) {
    throw std::runtime_error("write_corpus: short write to " + path);
  }
}

std::vector<CorpusEntry> FaultHunt::load_corpus(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw std::runtime_error("load_corpus: cannot open " + path);
  }
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, got);
  }
  const bool read_failed = std::ferror(file) != 0;
  std::fclose(file);
  if (read_failed) {
    throw std::runtime_error("load_corpus: read error on " + path);
  }

  std::vector<CorpusEntry> corpus;
  std::size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line{text.data() + pos, eol - pos};
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    // Exactly "entry violations=<n> minimized=<0|1> <hex>", one space apart.
    std::array<std::string_view, 4> tokens;
    std::size_t count = 0;
    const bool fits = for_each_split(line, ' ', [&](std::string_view token) {
      if (count == tokens.size()) return false;
      tokens[count++] = token;
      return true;
    });
    int violations = -1;
    int minimized = -1;
    if (!fits || count != tokens.size() || tokens[0] != "entry" ||
        !parse_field(tokens[1], "violations=", violations) ||
        !parse_field(tokens[2], "minimized=", minimized) || violations < 0 ||
        (minimized != 0 && minimized != 1)) {
      throw std::runtime_error(lazyeye::str_format(
          "load_corpus: malformed line %d in %s", line_no, path.c_str()));
    }
    auto schedule = schedule_from_hex(tokens[3]);
    if (!schedule) {
      throw std::runtime_error(lazyeye::str_format(
          "load_corpus: undecodable schedule at line %d in %s", line_no,
          path.c_str()));
    }
    CorpusEntry entry;
    entry.schedule = std::move(*schedule);
    entry.violations = violations;
    entry.minimized = minimized == 1;
    corpus.push_back(std::move(entry));
  }
  return corpus;
}

}  // namespace lazyeye::conformance
