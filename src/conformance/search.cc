#include "conformance/search.h"

#include <cctype>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "campaign/journal.h"
#include "campaign/runner.h"
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

int total_violations(const std::vector<ConformanceRecord>& records) {
  int n = 0;
  for (const ConformanceRecord& record : records) n += record.violations();
  return n;
}

/// The exact set of (client, rule) pairs that violate — the invariant
/// delta-minimization preserves.
std::set<std::string> violation_key(
    const std::vector<ConformanceRecord>& records) {
  std::set<std::string> key;
  for (const ConformanceRecord& record : records) {
    for (const Verdict& v : record.verdicts) {
      if (v.outcome == RuleOutcome::kViolate) {
        key.insert(record.client + "|" + v.rule);
      }
    }
  }
  return key;
}

TimedFault seeded_entry(SplitMix64& rng, std::uint64_t seed,
                        std::uint32_t stream, std::uint32_t plan_index) {
  TimedFault tf;
  tf.plan.kind =
      static_cast<FaultKind>(1 + rng.next() % (kFaultKindCount - 1));
  tf.plan.seed = seed;
  tf.plan.stream = stream;
  tf.plan.index = plan_index;
  tf.plan.target_family = (rng.next() & 1) != 0 ? simnet::Family::kIpv6
                                                : simnet::Family::kIpv4;
  tf.plan.spike = lazyeye::ms(50 + static_cast<std::int64_t>(rng.next() % 351));
  tf.trigger = static_cast<TriggerKind>(rng.next() % kTriggerKindCount);
  tf.start = sample_window_start(rng);
  tf.duration = sample_window_duration(rng);
  return tf;
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

}  // namespace

// ---- Coverage signature ---------------------------------------------------

std::string evidence_bucket(std::string_view evidence) {
  std::string out;
  out.reserve(evidence.size());
  bool in_digits = false;
  for (const char c : evidence) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      if (!in_digits) out.push_back('#');
      in_digits = true;
    } else {
      out.push_back(c);
      in_digits = false;
    }
  }
  return out;
}

std::vector<std::string> coverage_signature(
    const std::vector<ConformanceRecord>& records) {
  std::vector<std::string> sig;
  for (const ConformanceRecord& record : records) {
    for (const Verdict& v : record.verdicts) {
      std::string element = record.client;
      element.push_back('|');
      element += v.rule;
      element.push_back('|');
      element.push_back(rule_outcome_symbol(v.outcome));
      element.push_back('|');
      element += evidence_bucket(v.evidence);
      sig.push_back(std::move(element));
    }
    sig.push_back(lazyeye::str_format("fetch|%s|%s/%s", record.client.c_str(),
                                      record.first_fetch_ok ? "ok" : "fail",
                                      record.fetch_ok ? "ok" : "fail"));
  }
  // Cross-client differential: one element per rule with every client's
  // symbol in profile order — a schedule that splits two clients that used
  // to agree is novel even if each individual verdict was seen before.
  if (!records.empty()) {
    for (std::size_t r = 0; r < records.front().verdicts.size(); ++r) {
      std::string diff = "diff|" + records.front().verdicts[r].rule + "|";
      for (const ConformanceRecord& record : records) {
        diff.push_back(r < record.verdicts.size()
                           ? rule_outcome_symbol(record.verdicts[r].outcome)
                           : '?');
      }
      sig.push_back(std::move(diff));
    }
  }
  return sig;
}

// ---- Hunt internals -------------------------------------------------------

struct FaultHunt::State {
  SplitMix64 rng{0};
  std::set<std::string> coverage;
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
  if (options_.budget < 0) {
    throw std::invalid_argument("FaultHunt: negative budget");
  }
  if (options_.snapshot_every < 1) options_.snapshot_every = 1;
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
  std::vector<campaign::ScenarioSpec> specs;
  specs.reserve(profiles_.size());
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    campaign::ScenarioSpec spec =
        harness_.schedule_spec(profiles_[i], schedule, options_.fetches);
    spec.id = i;
    specs.push_back(std::move(spec));
  }
  campaign::RunnerOptions runner_options;
  runner_options.workers = options_.workers;
  const campaign::CampaignRunner runner{runner_options};
  const std::function<ConformanceRecord(const campaign::ScenarioSpec&)>
      executor = [this](const campaign::ScenarioSpec& spec) {
        for (const clients::ClientProfile& profile : profiles_) {
          if (profile.display_name() == spec.client) {
            return harness_.run_spec(profile, spec);
          }
        }
        throw std::invalid_argument("FaultHunt: unknown client " + spec.client);
      };
  return runner.run<ConformanceRecord>(specs, executor);
}

FaultSchedule FaultHunt::minimize(
    const FaultSchedule& schedule,
    const std::vector<ConformanceRecord>& baseline) const {
  const std::set<std::string> key = violation_key(baseline);
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
  const std::vector<std::string> sig = coverage_signature(candidate.records);
  std::string first_novel;
  for (const std::string& element : sig) {
    if (state.coverage.find(element) == state.coverage.end()) {
      first_novel = element;
      break;
    }
  }
  for (const std::string& element : sig) state.coverage.insert(element);
  const int violations = total_violations(candidate.records);
  if (violations > 0) ++state.violating;
  if (!first_novel.empty()) {
    CorpusEntry entry;
    entry.schedule =
        candidate.minimized ? *candidate.minimized : candidate.schedule;
    entry.violations = violations;
    entry.minimized = candidate.minimized.has_value();
    entry.novelty = std::move(first_novel);
    state.corpus.push_back(std::move(entry));
  }
}

// ---- State / candidate codecs (journal payloads) --------------------------

std::string FaultHunt::encode_state(const State& state) const {
  std::string out;
  wire::put_u64(out, state.rng.state());
  wire::put_u32(out, static_cast<std::uint32_t>(state.violating));
  wire::put_u32(out, static_cast<std::uint32_t>(state.coverage.size()));
  for (const std::string& element : state.coverage) {
    wire::put_str(out, element);
  }
  wire::put_u32(out, static_cast<std::uint32_t>(state.corpus.size()));
  for (const CorpusEntry& entry : state.corpus) {
    wire::put_str(out, encode_schedule(entry.schedule));
    wire::put_u32(out, static_cast<std::uint32_t>(entry.violations));
    wire::put_u8(out, entry.minimized ? 1 : 0);
    wire::put_str(out, entry.novelty);
  }
  return out;
}

FaultHunt::State FaultHunt::decode_state(std::string_view bytes) const {
  wire::Reader in{bytes};
  State state;
  state.rng = SplitMix64{in.u64()};
  state.violating = static_cast<int>(in.u32());
  const std::uint32_t coverage_count = in.u32();
  if (!in.ok || coverage_count > 1u << 24) {
    throw campaign::JournalError("hunt snapshot: malformed coverage set");
  }
  for (std::uint32_t i = 0; i < coverage_count; ++i) {
    state.coverage.insert(in.str());
  }
  const std::uint32_t corpus_count = in.u32();
  if (!in.ok || corpus_count > 1u << 20) {
    throw campaign::JournalError("hunt snapshot: malformed corpus");
  }
  for (std::uint32_t i = 0; i < corpus_count; ++i) {
    CorpusEntry entry;
    auto schedule = decode_schedule(in.str());
    entry.violations = static_cast<int>(in.u32());
    entry.minimized = in.u8() != 0;
    entry.novelty = in.str();
    if (!schedule) {
      throw campaign::JournalError("hunt snapshot: malformed schedule");
    }
    entry.schedule = std::move(*schedule);
    state.corpus.push_back(std::move(entry));
  }
  if (!in.exhausted()) {
    throw campaign::JournalError("hunt snapshot: trailing bytes");
  }
  return state;
}

std::string FaultHunt::encode_candidate(const Candidate& candidate) const {
  std::string out;
  wire::put_str(out, encode_schedule(candidate.schedule));
  wire::put_u8(out, candidate.minimized ? 1 : 0);
  if (candidate.minimized) {
    wire::put_str(out, encode_schedule(*candidate.minimized));
  }
  wire::put_u32(out, static_cast<std::uint32_t>(candidate.records.size()));
  for (const ConformanceRecord& record : candidate.records) {
    wire::put_str(out, encode_record(record));
  }
  return out;
}

FaultHunt::Candidate FaultHunt::decode_candidate(
    std::string_view bytes) const {
  wire::Reader in{bytes};
  Candidate candidate;
  auto schedule = decode_schedule(in.str());
  if (!schedule) {
    throw campaign::JournalError("hunt cell: malformed schedule");
  }
  candidate.schedule = std::move(*schedule);
  const std::uint8_t has_min = in.u8();
  if (has_min > 1) throw campaign::JournalError("hunt cell: bad flags");
  if (has_min == 1) {
    auto minimized = decode_schedule(in.str());
    if (!minimized) {
      throw campaign::JournalError("hunt cell: malformed minimized schedule");
    }
    candidate.minimized = std::move(*minimized);
  }
  const std::uint32_t record_count = in.u32();
  if (!in.ok || record_count > 4096) {
    throw campaign::JournalError("hunt cell: malformed record list");
  }
  for (std::uint32_t i = 0; i < record_count; ++i) {
    auto record = decode_record(in.str());
    if (!record) throw campaign::JournalError("hunt cell: malformed record");
    candidate.records.push_back(std::move(*record));
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
  std::uint64_t start_index = 0;
  bool complete = false;
  std::optional<campaign::JournalWriter> writer;

  if (!options_.journal_path.empty()) {
    const campaign::JournalLoad load =
        campaign::load_journal(options_.journal_path);
    if (load.exists) {
      if (load.identity != identity) {
        throw campaign::JournalError(
            "hunt journal identity mismatch: different seed/budget");
      }
      std::uint64_t replay_from = 0;
      if (!load.snapshot_state.empty()) {
        state = decode_state(load.snapshot_state);
        replay_from = load.snapshot_cells;
      }
      // Tail replay: re-derive each journaled candidate's proposal (the
      // RNG draws are part of the state transition) and fold its recorded
      // outcome in — no world re-runs.
      for (std::uint64_t i = replay_from; i < load.cells.size(); ++i) {
        const Candidate candidate = decode_candidate(load.cells[i].payload);
        const FaultSchedule proposed =
            propose(state, static_cast<std::uint32_t>(i));
        if (!(proposed == candidate.schedule)) {
          throw campaign::JournalError(
              "hunt journal diverges from the deterministic proposal stream");
        }
        apply(state, candidate);
      }
      start_index = load.resume_index();
      result.resumed = start_index > 0 || !load.snapshot_state.empty();
      complete = load.complete;
      if (!complete) {
        writer.emplace(campaign::JournalWriter::append(options_.journal_path,
                                                       load.valid_bytes));
        // A crash can land between a cell append and the snapshot that
        // cadence says follows it; re-emit the missing snapshot so the
        // resumed journal is byte-identical to an uninterrupted one.
        const auto every =
            static_cast<std::uint64_t>(options_.snapshot_every);
        if (start_index > 0 && start_index % every == 0 &&
            load.snapshot_cells < start_index) {
          writer->append_snapshot(start_index, encode_state(state));
        }
      }
    } else {
      writer.emplace(campaign::JournalWriter::create(
          options_.journal_path, identity, /*cell_begin=*/0, budget));
    }
  }

  if (!complete) {
    for (std::uint64_t i = start_index; i < budget; ++i) {
      Candidate candidate;
      candidate.schedule = propose(state, static_cast<std::uint32_t>(i));
      candidate.records = evaluate(candidate.schedule);
      if (total_violations(candidate.records) > 0) {
        candidate.minimized = minimize(candidate.schedule, candidate.records);
      }
      apply(state, candidate);
      if (writer) writer->append_cell(i, encode_candidate(candidate));
      if (options_.after_cell) options_.after_cell(static_cast<int>(i));
      if (writer && (i + 1) % static_cast<std::uint64_t>(
                                  options_.snapshot_every) ==
                        0) {
        writer->append_snapshot(i + 1, encode_state(state));
      }
    }
    if (writer) writer->append_complete(budget);
  }

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
  std::fclose(file);

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
    int violations = 0;
    int minimized = 0;
    char hex[4096] = {0};
    const std::string owned{line};
    if (std::sscanf(owned.c_str(), "entry violations=%d minimized=%d %4095s",
                    &violations, &minimized, hex) != 3) {
      throw std::runtime_error(lazyeye::str_format(
          "load_corpus: malformed line %d in %s", line_no, path.c_str()));
    }
    auto schedule = schedule_from_hex(hex);
    if (!schedule || minimized > 1 || violations < 0) {
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
