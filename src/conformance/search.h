// Coverage-guided fault hunt over compound schedules (ROADMAP "coverage-
// guided fault search").
//
// The hunt is a seeded, deterministic loop: each candidate FaultSchedule is
// either freshly generated from the hunt triple or a mutation (add / drop /
// retime / retarget an entry) of a corpus member; it runs differentially
// against every client profile; its fitness is *novelty* — the coverage
// signature (client, rule, verdict symbol, evidence bucket) plus per-rule
// cross-client verdict diffs — and novel candidates enter the corpus.
// Candidates that violate a rule are first delta-minimized (drop entries,
// zero/shrink windows) while the exact set of (client, rule) violations is
// preserved, so every corpus violation is a smallest-found replayable
// reproducer.
//
// Coverage elements are packed 64-bit values, never text. An element stands
// for the string the hunt once compared, e.g.
// "Chrome 130.0|resolution-delay|V|connected v# #ms after ..." (client,
// rule, symbol and the evidence with its digit runs collapsed), and two
// elements are equal exactly when those strings are:
//
//   verdict  tag 0 | profile index | rule | outcome | evidence kind
//            | duration_shape() of each duration the sentence prints
//   fetch    tag 1 | profile index | first fetch ok | final fetch ok
//   diff     tag 2 | rule | 2 bits per profile: the verdict symbol
//
// The diff element is why a hunt takes at most kMaxHuntProfiles profiles.
// coverage_element_text() writes the string back when a person asks.
//
// Crash safety: with journal_path set the hunt is a journaled campaign over
// its candidate indices (campaign/journal.h). One kCell record per
// candidate carries the proposed schedule, the minimized schedule and every
// per-profile record (record_codec.h, without the schedule each of them
// shares with the candidate) — enough to replay the hunt's state
// transitions WITHOUT re-running any world. Periodic kSnapshot records
// checkpoint the whole search state (mutation RNG state, coverage set,
// corpus), so resume is snapshot + short tail replay. A SIGKILL at any
// instant resumes to a byte-identical journal and corpus
// (tests/fault_search_test.cc).
//
// Everything the hunt derives — proposals, worlds, verdicts, minimization —
// is a pure function of (seed, budget, profiles), so two hunts with equal
// options produce equal corpora on any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/schedule.h"

namespace lazyeye::conformance {

/// Most profiles one hunt (and one coverage_signature) takes: the diff
/// element packs 2 bits per profile beside its tag and rule.
inline constexpr std::size_t kMaxHuntProfiles = 28;

struct HuntOptions {
  /// Hunt seed: roots the proposal stream and every candidate world.
  std::uint64_t seed = 1;
  /// Candidate schedules to evaluate.
  int budget = 64;
  /// kSnapshot cadence, in candidates (journaled hunts only).
  int snapshot_every = 16;
  /// Fetches per cell (2 exercises the restart-cache rule, like the
  /// differential matrix).
  int fetches = 2;
  /// Worker threads for each candidate's per-profile matrix. 1 runs inline
  /// (fork-safe); results are byte-identical at any width.
  int workers = 1;
  /// Journal file ("" = in-memory hunt, no crash safety).
  std::string journal_path;
  /// Progress hook: called after candidate `index` is folded into the state
  /// (and its cell record journaled) but BEFORE any snapshot it is due —
  /// the kill-9 harness uses it to die at deterministic spots, including
  /// the gap between a cell and its cadence snapshot.
  std::function<void(int index)> after_cell;
  /// World options for every candidate cell. `conformance.seed` must equal
  /// `seed`: a corpus entry replays under its schedule's seed, which is the
  /// hunt seed.
  ConformanceOptions conformance;
};

/// One corpus member: a schedule the hunt kept because it covered something
/// new. Violating members are stored delta-minimized.
struct CorpusEntry {
  FaultSchedule schedule;
  /// Rule violations across the candidate's per-profile records.
  int violations = 0;
  bool minimized = false;
  /// The first novel signature element that admitted it (diagnostic; see
  /// coverage_element_text). 0 for entries read from a corpus file, which
  /// does not carry it.
  std::uint64_t novelty = 0;

  bool operator==(const CorpusEntry&) const = default;
};

struct HuntResult {
  std::vector<CorpusEntry> corpus;
  /// Every coverage-signature element ever observed (std::set: iteration
  /// order is deterministic, per repo lint rules).
  std::set<std::uint64_t> coverage;
  int candidates = 0;             // evaluated (or replayed) this run
  int violating_candidates = 0;   // candidates with >= 1 rule violation
  bool resumed = false;           // a journal with prior progress was loaded
};

// ---- Coverage signature (unit-tested building blocks) ---------------------

/// Digit runs collapsed to '#': "waited 43 ms (< 250 ms)" and
/// "waited 57 ms (< 250 ms)" bucket identically.
std::string evidence_bucket(std::string_view evidence);

/// The candidate's full coverage signature over its per-profile records
/// (record i ran profile i): per-verdict and per-record fetch elements,
/// then one cross-client diff element per rule. Pure function of the
/// records; throws std::invalid_argument on more than kMaxHuntProfiles.
std::vector<std::uint64_t> coverage_signature(
    const std::vector<ConformanceRecord>& records);

/// The string `element` stands for, e.g. "fetch|curl 7.88.1|ok/fail";
/// `profiles` are the hunt's, in order. Throws std::out_of_range on a
/// profile index past them.
std::string coverage_element_text(
    std::uint64_t element,
    const std::vector<clients::ClientProfile>& profiles);

class FaultHunt {
 public:
  /// Throws std::invalid_argument on an empty profile list or one longer
  /// than kMaxHuntProfiles, a negative budget, or a `conformance.seed`
  /// other than `seed`.
  FaultHunt(HuntOptions options, std::vector<clients::ClientProfile> profiles);

  const HuntOptions& options() const { return options_; }

  /// Runs (or resumes) the hunt. Journaled hunts refuse a journal whose
  /// identity names another seed or budget, whose first candidate's records
  /// name other profiles (by display name, in order) or another fetch
  /// count, or which diverges from the deterministic proposal stream — all
  /// throw campaign::JournalError. Other options (workers, snapshot cadence,
  /// conformance world options) are not checked.
  HuntResult run();

  /// Deterministic text form of a corpus ("# lazyeye-hunt corpus v1" header
  /// plus one hex entry line per schedule).
  static std::string corpus_text(const std::vector<CorpusEntry>& corpus);

  /// Writes corpus_text() to `path` (truncating). Throws std::runtime_error
  /// when the file cannot be written.
  static void write_corpus(const std::string& path,
                           const std::vector<CorpusEntry>& corpus);

  /// Parses a corpus file back. Throws std::runtime_error on unreadable
  /// files or malformed lines — a corpus that cannot be trusted to replay
  /// is refused loudly, never silently truncated.
  static std::vector<CorpusEntry> load_corpus(const std::string& path);

 private:
  struct State;
  struct Candidate;

  FaultSchedule propose(State& state, std::uint32_t index) const;
  std::vector<ConformanceRecord> evaluate(const FaultSchedule& schedule) const;
  FaultSchedule minimize(const FaultSchedule& schedule,
                         const std::vector<ConformanceRecord>& baseline) const;
  void apply(State& state, const Candidate& candidate) const;

  std::string encode_state(const State& state) const;
  State decode_state(std::string_view bytes) const;
  std::string encode_candidate(const Candidate& candidate) const;
  Candidate decode_candidate(std::string_view bytes) const;

  HuntOptions options_;
  std::vector<clients::ClientProfile> profiles_;
  ConformanceHarness harness_;
};

}  // namespace lazyeye::conformance
