// Coverage-guided fault hunt: crash safety, determinism, and the schedule
// codec.
//
// The kill(SIGKILL) tests run FIRST in this binary: they fork, and fork()
// is only safe while no WorkerPool threads exist yet (hunts in both the
// child and the parent reference run use workers=1, which executes inline).
// The multi-worker determinism tests at the bottom are what spin up pool
// threads, after all forking is done.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "campaign/journal.h"
#include "campaign/journal_sink.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/record_codec.h"
#include "conformance/schedule.h"
#include "conformance/search.h"
#include "util/crc32.h"
#include "util/strings.h"
#include "util/time.h"
#include "util/wire.h"

namespace lazyeye::conformance {
namespace {

std::string tmp_path(const std::string& name) {
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path.append("lazyeye_");
  path.append(name);
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<clients::ClientProfile> hunt_profiles() {
  std::vector<clients::ClientProfile> profiles =
      clients::local_testbed_profiles();
  profiles.resize(2);
  return profiles;
}

HuntOptions hunt_options(const std::string& journal_path) {
  HuntOptions options;
  options.seed = 11;
  options.conformance.seed = 11;
  options.budget = 16;
  options.snapshot_every = 4;
  options.workers = 1;
  options.journal_path = journal_path;
  return options;
}

// ----------------------------------------------------- kill -9 + resume ----
// Must stay the first tests in this file (see the header comment).

#if defined(__unix__) || defined(__APPLE__)

/// Forks a child that runs a journaled hunt and SIGKILLs itself right after
/// candidate `kill_after`'s cell record is appended — BEFORE any snapshot
/// due at that index, so kill points on a snapshot boundary land in the
/// cell/snapshot gap the resume path must repair. The parent then resumes
/// the journal to completion and byte-compares journal and corpus against
/// `reference` (an uninterrupted run of the same options).
void kill_resume_round(int kill_after, const std::string& reference_journal,
                       const std::string& reference_corpus) {
  const std::string path =
      tmp_path("hunt_kill" + std::to_string(kill_after) + ".journal");

  std::fflush(nullptr);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    HuntOptions options = hunt_options(path);
    options.after_cell = [kill_after](int index) {
      if (index == kill_after) {
        std::fflush(nullptr);
        raise(SIGKILL);
      }
    };
    FaultHunt hunt{options, hunt_profiles()};
    hunt.run();
    _exit(7);  // not reached: the hunt must die before finishing
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Partial journal: exactly the candidates up to the kill point.
  const campaign::JournalLoad load = campaign::load_journal(path);
  ASSERT_TRUE(load.exists);
  EXPECT_EQ(load.cells.size(), static_cast<std::size_t>(kill_after) + 1);
  EXPECT_FALSE(load.complete);

  // Resume: snapshot restore + tail replay + the remaining candidates.
  FaultHunt resumed{hunt_options(path), hunt_profiles()};
  const HuntResult result = resumed.run();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.candidates, 16);

  EXPECT_EQ(read_file(path), reference_journal)
      << "journal after kill at candidate " << kill_after
      << " + resume is not byte-identical to the uninterrupted run";
  EXPECT_EQ(FaultHunt::corpus_text(result.corpus), reference_corpus)
      << "corpus after kill at candidate " << kill_after
      << " diverged from the uninterrupted run";
}

TEST(FaultSearchCrashTest, KillNineMidHuntThenResumeIsByteIdentical) {
  // Uninterrupted reference (workers=1: inline, still fork-safe after).
  const std::string reference_path = tmp_path("hunt_reference.journal");
  FaultHunt reference{hunt_options(reference_path), hunt_profiles()};
  const HuntResult expected = reference.run();
  EXPECT_FALSE(expected.resumed);
  EXPECT_EQ(expected.candidates, 16);
  EXPECT_FALSE(expected.corpus.empty());
  const std::string reference_journal = read_file(reference_path);
  const std::string reference_corpus = FaultHunt::corpus_text(expected.corpus);
  ASSERT_FALSE(reference_journal.empty());

  // Kill points: mid-cadence (5), and on a snapshot boundary (7, 11) where
  // the cell record lands but its snapshot does not — resume must re-emit
  // the missing snapshot for the journals to stay byte-identical.
  kill_resume_round(5, reference_journal, reference_corpus);
  kill_resume_round(7, reference_journal, reference_corpus);
  kill_resume_round(11, reference_journal, reference_corpus);
}

TEST(FaultSearchCrashTest, CompletedJournalReloadsWithoutRerun) {
  const std::string path = tmp_path("hunt_complete.journal");
  FaultHunt first{hunt_options(path), hunt_profiles()};
  const HuntResult fresh = first.run();
  EXPECT_FALSE(fresh.resumed);

  // Second run with equal options: pure journal replay, identical corpus.
  FaultHunt second{hunt_options(path), hunt_profiles()};
  const HuntResult replayed = second.run();
  EXPECT_TRUE(replayed.resumed);
  EXPECT_EQ(replayed.corpus, fresh.corpus);
  EXPECT_EQ(replayed.coverage, fresh.coverage);
  EXPECT_EQ(replayed.violating_candidates, fresh.violating_candidates);
}

TEST(FaultSearchCrashTest, JournalIdentityMismatchRefused) {
  const std::string path = tmp_path("hunt_identity.journal");
  FaultHunt first{hunt_options(path), hunt_profiles()};
  first.run();

  HuntOptions different = hunt_options(path);
  different.budget = 32;  // different identity: refuse, never mix corpora
  FaultHunt second{different, hunt_profiles()};
  EXPECT_THROW(second.run(), campaign::JournalError);
}

#endif  // unix

TEST(FaultSearchJournalTest, JournalOfOtherProfilesOrFetchesRefused) {
  const std::string path = tmp_path("hunt_profiles.journal");
  FaultHunt first{hunt_options(path), hunt_profiles()};
  first.run();
  const std::string journal = read_file(path);

  // Same seed and budget, so the identity matches; the records do not.
  std::vector<clients::ClientProfile> more = clients::local_testbed_profiles();
  more.resize(3);
  FaultHunt more_profiles{hunt_options(path), more};
  EXPECT_THROW(more_profiles.run(), campaign::JournalError);

  std::vector<clients::ClientProfile> reordered = hunt_profiles();
  std::swap(reordered[0], reordered[1]);
  FaultHunt reordered_profiles{hunt_options(path), reordered};
  EXPECT_THROW(reordered_profiles.run(), campaign::JournalError);

  HuntOptions one_fetch = hunt_options(path);
  one_fetch.fetches = 1;
  FaultHunt other_fetches{one_fetch, hunt_profiles()};
  EXPECT_THROW(other_fetches.run(), campaign::JournalError);

  // Refusals leave the journal as it was, and equal options still resume.
  EXPECT_EQ(read_file(path), journal);
  FaultHunt same{hunt_options(path), hunt_profiles()};
  EXPECT_TRUE(same.run().resumed);
}

/// Resumes a hunt whose journal is the real header of `path` followed by
/// one CRC-valid snapshot record carrying `state`; returns the refusal.
std::string resume_with_snapshot(const std::string& path,
                                 const std::string& state) {
  constexpr std::size_t kHeaderSize = 34;
  std::string bytes = read_file(path).substr(0, kHeaderSize);
  std::string record;
  wire::put_u8(record, 3);  // snapshot
  wire::put_u32(record, static_cast<std::uint32_t>(8 + state.size()));
  wire::put_u64(record, 0);  // cells delivered
  record.append(state);
  wire::put_u32(record, util::crc32(record));
  bytes.append(record);
  std::ofstream{path, std::ios::binary | std::ios::trunc}
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  FaultHunt resumed{hunt_options(path), hunt_profiles()};
  try {
    resumed.run();
  } catch (const campaign::JournalError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(FaultSearchJournalTest, SnapshotCountsAreBoundedByTheirBytes) {
  const std::string path = tmp_path("hunt_snapshot_bound.journal");
  FaultHunt first{hunt_options(path), hunt_profiles()};
  first.run();

  // 16 bytes claiming 2^24 coverage elements: refused before the loop, not
  // after inserting 2^24 elements read past the end of the body.
  std::string coverage_bomb;
  wire::put_u64(coverage_bomb, 1);         // rng state
  wire::put_u32(coverage_bomb, 0);         // violating candidates
  wire::put_u32(coverage_bomb, 1u << 24);  // coverage elements, no bytes
  const std::string coverage_refusal =
      resume_with_snapshot(path, coverage_bomb);
  EXPECT_NE(coverage_refusal.find("coverage set"), std::string::npos)
      << coverage_refusal;

  // 2^20 corpus entries in 0 bytes: each takes at least 17.
  std::string corpus_bomb;
  wire::put_u64(corpus_bomb, 1);
  wire::put_u32(corpus_bomb, 0);
  wire::put_u32(corpus_bomb, 0);         // empty coverage set
  wire::put_u32(corpus_bomb, 1u << 20);  // corpus entries, no bytes
  const std::string corpus_refusal = resume_with_snapshot(path, corpus_bomb);
  EXPECT_NE(corpus_refusal.find("malformed corpus"), std::string::npos)
      << corpus_refusal;
  std::remove(path.c_str());
}

/// One client of each family: Chrome, Firefox, curl and wget.
std::vector<clients::ClientProfile> pinned_profiles() {
  std::vector<clients::ClientProfile> profiles;
  for (const auto& p : clients::local_testbed_profiles()) {
    const std::string name = p.display_name();
    if (name == "Chrome 130.0" || name == "Firefox 132.0" ||
        p.name == "curl" || p.name == "wget") {
      profiles.push_back(p);
    }
  }
  return profiles;
}

/// The pinned hunt: seed 1, budget 32, journaled at `path`.
HuntResult run_pinned_hunt(const std::string& path) {
  HuntOptions options = hunt_options(path);
  options.seed = 1;
  options.conformance.seed = 1;
  options.budget = 32;
  FaultHunt hunt{options, pinned_profiles()};
  return hunt.run();
}

TEST(FaultSearchJournalTest, SmallHuntJournalAndCorpusDigestsArePinned) {
  // Pinned digests of a small journaled hunt over one client of each
  // family: any change to the world, the clients, the rules or the search
  // that moves one journal or corpus byte shows up here.
  ASSERT_EQ(pinned_profiles().size(), 4u);
  const std::string path = tmp_path("hunt_pinned.journal");
  const HuntResult result = run_pinned_hunt(path);
  EXPECT_EQ(util::crc32(read_file(path)), 0x57a7723eu);
  EXPECT_EQ(util::crc32(FaultHunt::corpus_text(result.corpus)), 0xa7735fc9u)
      << FaultHunt::corpus_text(result.corpus);
  std::remove(path.c_str());
}

TEST(FaultSearchJournalTest, EveryCorpusEntryReplaysItsViolations) {
  // What `lazyeye_hunt show` prints as a replay command: the probe runs the
  // schedule under its own seed. Over the hunt's profiles that must give
  // back exactly the violations the corpus recorded.
  const std::string path = tmp_path("hunt_replay.journal");
  const HuntResult result = run_pinned_hunt(path);
  std::remove(path.c_str());
  ASSERT_FALSE(result.corpus.empty());
  int violating_entries = 0;
  for (const CorpusEntry& entry : result.corpus) {
    const ConformanceHarness harness{{.seed = entry.schedule.seed}};
    int violations = 0;
    for (const auto& profile : pinned_profiles()) {
      violations +=
          harness.replay_schedule(profile, entry.schedule).violations();
    }
    EXPECT_EQ(violations, entry.violations) << entry.schedule.repro();
    if (entry.violations > 0) ++violating_entries;
  }
  EXPECT_GT(violating_entries, 0);
}

// ------------------------------------------------ version-1 journals ----

/// A conformance record as journal version 1 wrote it: rule names and
/// evidence as text, verdict count as u32.
std::string text_verdict_record(const ConformanceRecord& record) {
  std::string out;
  wire::put_str(out, record.client);
  encode_plan(record.fault, out);
  wire::put_u8(out, record.schedule ? 1 : 0);
  if (record.schedule) wire::put_str(out, encode_schedule(*record.schedule));
  wire::put_u32(out, static_cast<std::uint32_t>(record.fetches));
  wire::put_u8(out, record.fetch_ok ? 1 : 0);
  wire::put_u8(out, record.first_fetch_ok ? 1 : 0);
  wire::put_u32(out, static_cast<std::uint32_t>(record.verdicts.size()));
  for (const Verdict& v : record.verdicts) {
    wire::put_str(out, rule_name(v.rule));
    wire::put_u8(out, static_cast<std::uint8_t>(v.outcome));
    wire::put_str(out, render_evidence(v));
  }
  return out;
}

/// A version-1 journal file: the header, then one kCell record per payload
/// from index `begin` on.
void write_version1_journal(const std::string& path, std::uint64_t identity,
                            std::uint64_t begin, std::uint64_t end,
                            const std::vector<std::string>& payloads) {
  std::string bytes = "LZYJ";
  wire::put_u16(bytes, 1);
  wire::put_u64(bytes, identity);
  wire::put_u64(bytes, begin);
  wire::put_u64(bytes, end);
  wire::put_u32(bytes, util::crc32(bytes));
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::string record;
    wire::put_u8(record, 1);  // cell
    wire::put_u32(record, static_cast<std::uint32_t>(8 + payloads[i].size()));
    wire::put_u64(record, begin + i);
    record.append(payloads[i]);
    wire::put_u32(record, util::crc32(record));
    bytes.append(record);
  }
  std::ofstream{path, std::ios::binary | std::ios::trunc}
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Expects `run` to refuse the journal at `path` naming both versions, and
/// to leave the file as it was.
template <typename Run>
void expect_version1_refused(const std::string& path, Run&& run) {
  const std::string before = read_file(path);
  try {
    run();
    ADD_FAILURE() << "a version-1 journal was accepted";
  } catch (const campaign::JournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
  }
  EXPECT_EQ(read_file(path), before);
}

TEST(FaultSearchJournalTest, HuntJournalOfTextVerdictsIsRefused) {
  // The first two candidates of the hunt hunt_options() describes, as a
  // version-1 journal: same identity, same proposals, so only the version
  // tells it apart.
  const std::string path = tmp_path("hunt_version1.journal");
  const HuntOptions options = hunt_options(path);
  const ConformanceHarness harness{options.conformance};
  std::vector<std::string> payloads;
  for (std::uint32_t index = 0; index < 2; ++index) {
    const FaultSchedule schedule =
        FaultSchedule::generate(options.seed, 0xFA, index);
    std::string payload;
    wire::put_str(payload, encode_schedule(schedule));
    wire::put_u8(payload, 0);  // not minimized
    wire::put_u32(payload, static_cast<std::uint32_t>(hunt_profiles().size()));
    for (const auto& profile : hunt_profiles()) {
      wire::put_str(payload,
                    text_verdict_record(harness.replay_schedule(
                        profile, schedule, options.fetches)));
    }
    payloads.push_back(std::move(payload));
  }
  const auto budget = static_cast<std::uint64_t>(options.budget);
  write_version1_journal(
      path, campaign::journal_identity("lazyeye-hunt", budget, options.seed),
      0, budget, payloads);
  expect_version1_refused(path, [&] {
    FaultHunt{options, hunt_profiles()}.run();
  });
  std::remove(path.c_str());
}

TEST(FaultSearchJournalTest, ShardJournalOfTextVerdictsIsRefused) {
  // What `lazyeye_shard run --smoke --shards 1` journals: the seed-1
  // differential matrix over three profiles, identity and codec as the
  // tool has them. Its first four cells in the version-1 form.
  const std::string path = tmp_path("shard_version1.journal");
  std::vector<clients::ClientProfile> profiles =
      clients::local_testbed_profiles();
  profiles.resize(3);
  const ConformanceHarness harness{{.seed = 1}};
  const std::vector<campaign::ScenarioSpec> specs =
      harness.differential_specs(profiles);
  const std::uint64_t identity =
      campaign::journal_identity("conformance-differential", specs.size(), 1);
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < 4; ++i) {
    payloads.push_back(text_verdict_record(
        harness.run_spec(profiles[i % profiles.size()], specs[i])));
  }
  write_version1_journal(path, identity, 0, specs.size(), payloads);

  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, profiles);
  const campaign::JournalCodec<ConformanceRecord> codec{
      .encode = [](const campaign::ScenarioSpec&,
                   const ConformanceRecord& record) {
        return encode_record(record);
      },
      .decode = [](std::string_view bytes) { return decode_record(bytes); },
  };
  campaign::CallbackSink<ConformanceRecord> sink{
      [](const campaign::ScenarioSpec&, ConformanceRecord) {}};
  expect_version1_refused(path, [&] {
    campaign::run_journaled<ConformanceRecord>(
        campaign::CampaignRunner{{.workers = 1}},
        campaign::SpecStream::view(specs),
        [&registry](const campaign::ScenarioSpec& spec) {
          return registry.execute(spec);
        },
        sink, {.path = path, .identity = identity}, codec);
  });
  // merge reads the journals with load_journal alone.
  expect_version1_refused(path, [&] { campaign::load_journal(path); });
  std::remove(path.c_str());
}

TEST(FaultSearchJournalTest, HuntRefusesAWorldSeedOtherThanItsSeed) {
  // Its corpus would replay in other worlds than the ones it was found in.
  HuntOptions options = hunt_options("");
  options.conformance.seed = options.seed + 1;
  EXPECT_THROW((FaultHunt{options, hunt_profiles()}), std::invalid_argument);
  options.conformance.seed = options.seed;
  EXPECT_NO_THROW((FaultHunt{options, hunt_profiles()}));
}

// -------------------------------------------------------- schedule codec ----

TEST(ScheduleCodecTest, GeneratedSchedulesRoundTrip) {
  for (std::uint32_t index = 0; index < 24; ++index) {
    const FaultSchedule schedule = FaultSchedule::generate(11, 3, index);
    ASSERT_FALSE(schedule.entries.empty());
    ASSERT_LE(schedule.entries.size(), 3u);

    const auto decoded = decode_schedule(encode_schedule(schedule));
    ASSERT_TRUE(decoded.has_value()) << "index " << index;
    EXPECT_EQ(*decoded, schedule);

    const auto from_hex = schedule_from_hex(schedule_to_hex(schedule));
    ASSERT_TRUE(from_hex.has_value()) << "index " << index;
    EXPECT_EQ(*from_hex, schedule);
  }
}

TEST(ScheduleCodecTest, MutatedScheduleRoundTripsAndRunsDistinctWorld) {
  const FaultSchedule parent = FaultSchedule::generate(11, 3, 0);
  FaultSchedule mutant = parent;
  mutant.entries[0].start = lazyeye::ms(5);
  mutant.entries[0].duration = lazyeye::ms(90);
  mutant.entries[0].trigger = TriggerKind::kAfterFirstDnsResponse;

  // Content is folded into the world seed: a retimed mutant runs a
  // different world than its parent even though the triple is unchanged.
  EXPECT_NE(mutant.rng_seed(), parent.rng_seed());

  const auto decoded = schedule_from_hex(schedule_to_hex(mutant));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, mutant);
  EXPECT_EQ(decoded->rng_seed(), mutant.rng_seed());
}

TEST(ScheduleCodecTest, MalformedBytesRejected) {
  const FaultSchedule schedule = FaultSchedule::generate(11, 3, 1);
  const std::string bytes = encode_schedule(schedule);

  EXPECT_FALSE(decode_schedule("").has_value());
  EXPECT_FALSE(decode_schedule(bytes.substr(0, bytes.size() - 1)).has_value());
  EXPECT_FALSE(decode_schedule(bytes + "x").has_value());

  std::string bad_kind = bytes;
  bad_kind[20] = static_cast<char>(0x7F);  // entry 0 kind out of range
  EXPECT_FALSE(decode_schedule(bad_kind).has_value());

  EXPECT_FALSE(schedule_from_hex("0123zz").has_value());
  EXPECT_FALSE(schedule_from_hex("abc").has_value());  // odd length
}

TEST(ScheduleCodecTest, CorpusFileRoundTripsAndRefusesDamage) {
  std::vector<CorpusEntry> corpus;
  for (std::uint32_t i = 0; i < 3; ++i) {
    CorpusEntry entry;
    entry.schedule = FaultSchedule::generate(11, 3, i);
    entry.violations = static_cast<int>(i);
    entry.minimized = i == 2;
    corpus.push_back(entry);
  }
  const std::string path = tmp_path("corpus.txt");
  FaultHunt::write_corpus(path, corpus);

  const std::vector<CorpusEntry> loaded = FaultHunt::load_corpus(path);
  ASSERT_EQ(loaded.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(loaded[i].schedule, corpus[i].schedule);
    EXPECT_EQ(loaded[i].violations, corpus[i].violations);
    EXPECT_EQ(loaded[i].minimized, corpus[i].minimized);
  }

  // One damaged line refuses the whole file.
  const std::string intact = FaultHunt::corpus_text(corpus);
  const std::string hex = schedule_to_hex(corpus[0].schedule);
  for (const std::string& damaged : {
           std::string{"entry violations=1 minimized=0 nothex!!"},
           "entry violations=1 minimized=-1 " + hex,
           "entry violations=1 minimized=0 " + hex + " trailing junk",
           // Out of int range: must not wrap to 1.
           "entry violations=4294967297 minimized=0 " + hex,
       }) {
    std::ofstream out{path, std::ios::trunc};
    out << intact << damaged << "\n";
    out.close();
    EXPECT_THROW(FaultHunt::load_corpus(path), std::runtime_error) << damaged;
  }

  // A read error (reading a directory fails with EISDIR) is refused, not
  // loaded as an empty corpus.
  EXPECT_THROW(FaultHunt::load_corpus(::testing::TempDir()),
               std::runtime_error);
}

// ----------------------------------------------- coverage signature units ----

TEST(CoverageSignatureTest, EvidenceBucketCollapsesDigitRuns) {
  EXPECT_EQ(evidence_bucket("waited 43 ms (< 250 ms)"),
            evidence_bucket("waited 187 ms (< 250 ms)"));
  EXPECT_EQ(evidence_bucket("waited 43 ms"), "waited # ms");
  EXPECT_NE(evidence_bucket("attempt 2 aborted"), evidence_bucket("no winner"));
  EXPECT_EQ(evidence_bucket(""), "");
}

TEST(CoverageSignatureTest, SignatureSeparatesVerdictChangesAndClientSplits) {
  const std::vector<clients::ClientProfile> profiles = hunt_profiles();
  ConformanceRecord a;
  a.client = profiles[0].display_name();
  a.verdicts = {{RuleId::kRestartCache, RuleOutcome::kPass,
                 {.kind = EvidenceKind::kNoRequery}}};
  ConformanceRecord b = a;
  b.client = profiles[1].display_name();

  const auto agree = coverage_signature({a, b});
  b.verdicts[0].outcome = RuleOutcome::kViolate;
  b.verdicts[0].evidence = {.kind = EvidenceKind::kRequeried, .count = 2};
  const auto split = coverage_signature({a, b});

  // The per-rule diff element changes when clients stop agreeing.
  EXPECT_NE(agree, split);
  std::vector<std::string> texts;
  for (const std::uint64_t element : split) {
    texts.push_back(coverage_element_text(element, profiles));
  }
  EXPECT_EQ(texts, (std::vector<std::string>{
                       a.client + "|restart-cache|P|restart reused the "
                                  "session's cached winner (no re-query)",
                       "fetch|" + a.client + "|fail/fail",
                       b.client + "|restart-cache|V|# DNS queries after the "
                                  "first fetch completed within the cache TTL",
                       "fetch|" + b.client + "|fail/fail",
                       "diff|restart-cache|PV",
                   }));
}

/// The string a coverage element stood for when coverage was text:
/// "client|rule|symbol|bucketed evidence", "fetch|client|first/final",
/// "diff|rule|<symbol per client>".
std::vector<std::string> text_signature(
    const std::vector<ConformanceRecord>& records) {
  std::vector<std::string> sig;
  for (const ConformanceRecord& record : records) {
    for (const Verdict& v : record.verdicts) {
      sig.push_back(str_cat(record.client, '|', rule_name(v.rule), '|',
                            rule_outcome_symbol(v.outcome), '|',
                            evidence_bucket(render_evidence(v))));
    }
    sig.push_back(str_cat("fetch|", record.client, '|',
                          record.first_fetch_ok ? "ok" : "fail", '/',
                          record.fetch_ok ? "ok" : "fail"));
  }
  for (std::size_t r = 0; !records.empty() && r < records.front().verdicts.size();
       ++r) {
    std::string diff =
        str_cat("diff|", rule_name(records.front().verdicts[r].rule), '|');
    for (const ConformanceRecord& record : records) {
      diff.push_back(r < record.verdicts.size()
                         ? rule_outcome_symbol(record.verdicts[r].outcome)
                         : '?');
    }
    sig.push_back(std::move(diff));
  }
  return sig;
}

/// Every candidate's records from a hunt journal, in candidate order
/// (layout: search.h and record_codec.h).
std::vector<std::vector<ConformanceRecord>> journaled_records(
    const std::string& path) {
  std::vector<std::vector<ConformanceRecord>> candidates;
  for (const auto& cell : campaign::load_journal(path).cells) {
    wire::Reader in{cell.payload};
    in.skip(in.u32());                 // proposed schedule
    if (in.u8() == 1) in.skip(in.u32());  // minimized schedule
    std::vector<ConformanceRecord> records(in.u32());
    for (ConformanceRecord& record : records) {
      EXPECT_TRUE(decode_record(in, record));
    }
    EXPECT_TRUE(in.exhausted());
    candidates.push_back(std::move(records));
  }
  return candidates;
}

TEST(CoverageSignatureTest, PackedElementsPartitionExactlyAsTheirText) {
  // Every record of journaled budget-64 hunts at seeds 1-3 over every
  // testbed profile: two packed elements are equal exactly when their
  // strings are, each renders back to its string, and every candidate's
  // first novel element sits at the same index under both forms.
  const std::vector<clients::ClientProfile> profiles =
      clients::local_testbed_profiles();
  ASSERT_EQ(profiles.size(), 17u);
  std::map<std::uint64_t, std::string> text_of;
  std::map<std::string, std::uint64_t> element_of;
  std::size_t elements = 0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const std::string path = tmp_path("hunt_partition.journal");
    HuntOptions options = hunt_options(path);
    options.seed = seed;
    options.conformance.seed = seed;
    options.budget = 64;
    const HuntResult result = FaultHunt{options, profiles}.run();

    std::set<std::uint64_t> covered;
    std::set<std::string> covered_text;
    std::size_t novel_candidates = 0;
    for (const auto& records : journaled_records(path)) {
      const std::vector<std::uint64_t> sig = coverage_signature(records);
      const std::vector<std::string> text = text_signature(records);
      ASSERT_EQ(sig.size(), text.size());
      std::ptrdiff_t first_novel = -1;
      std::ptrdiff_t first_novel_text = -1;
      for (std::size_t i = 0; i < sig.size(); ++i) {
        ++elements;
        const auto [it, fresh] = text_of.emplace(sig[i], text[i]);
        EXPECT_EQ(it->second, text[i]) << "one element, two strings";
        const auto [jt, fresh_text] = element_of.emplace(text[i], sig[i]);
        EXPECT_EQ(jt->second, sig[i]) << "one string, two elements: " << text[i];
        if (fresh) {
          EXPECT_EQ(coverage_element_text(sig[i], profiles), text[i]);
        }
        if (covered.insert(sig[i]).second && first_novel < 0) {
          first_novel = static_cast<std::ptrdiff_t>(i);
        }
        if (covered_text.insert(text[i]).second && first_novel_text < 0) {
          first_novel_text = static_cast<std::ptrdiff_t>(i);
        }
      }
      EXPECT_EQ(first_novel, first_novel_text);
      if (first_novel >= 0) {
        ASSERT_LT(novel_candidates, result.corpus.size());
        EXPECT_EQ(result.corpus[novel_candidates++].novelty,
                  sig[static_cast<std::size_t>(first_novel)]);
      }
    }
    EXPECT_EQ(novel_candidates, result.corpus.size());
    EXPECT_EQ(covered, result.coverage);
    EXPECT_EQ(covered.size(), covered_text.size());
    std::remove(path.c_str());
  }
  EXPECT_EQ(text_of.size(), element_of.size());
  EXPECT_GT(elements, 3u * 64 * 17 * (kRuleCount + 1));
}

// ------------------------------------------- schedule cells & determinism ----

TEST(ScheduleCellTest, WindowGatingControlsInjection) {
  const auto profiles = hunt_profiles();
  ConformanceOptions options;
  options.seed = 11;
  const ConformanceHarness harness{options};

  // One DNS-starving entry, open window from t=0: the fault must bite.
  FaultSchedule active;
  active.seed = 11;
  active.entries.resize(1);
  active.entries[0].plan.kind = FaultKind::kDnsStarveFamily;
  active.entries[0].plan.seed = 11;
  active.entries[0].plan.target_family = simnet::Family::kIpv6;

  // Same entry, window opening minutes after the session is over: inert.
  FaultSchedule inert = active;
  inert.entries[0].start = lazyeye::ms(600000);
  inert.entries[0].duration = lazyeye::ms(50);

  const ConformanceRecord hit =
      harness.replay_schedule(profiles[0], active, 2);
  const ConformanceRecord miss =
      harness.replay_schedule(profiles[0], inert, 2);
  ASSERT_FALSE(hit.verdicts.empty());
  ASSERT_TRUE(hit.schedule.has_value());

  // The starved world loses its AAAA answers; the inert window leaves the
  // dual-stack session intact, so the two records cannot agree.
  EXPECT_NE(coverage_signature({hit}), coverage_signature({miss}));
  bool starved_evidence = false;
  for (const Verdict& v : hit.verdicts) {
    if (render_evidence(v).find("both families") != std::string::npos) {
      starved_evidence = true;
    }
  }
  EXPECT_TRUE(starved_evidence);
}

TEST(ScheduleCellTest, CampaignVerdictsAreWorkerCountInvariant) {
  const auto profiles = hunt_profiles();
  ConformanceOptions conformance_options;
  conformance_options.seed = 11;
  const ConformanceHarness harness{conformance_options};

  std::vector<campaign::ScenarioSpec> specs;
  for (std::uint32_t index = 0; index < 6; ++index) {
    const FaultSchedule schedule = FaultSchedule::generate(11, 9, index);
    for (const auto& profile : profiles) {
      specs.push_back(harness.schedule_spec(profile, schedule, 2));
      specs.back().id = specs.size() - 1;
    }
  }
  const std::function<ConformanceRecord(const campaign::ScenarioSpec&)>
      executor = [&](const campaign::ScenarioSpec& spec) {
        for (const auto& profile : profiles) {
          if (profile.display_name() == spec.client) {
            return harness.run_spec(profile, spec);
          }
        }
        throw std::runtime_error("unknown client " + spec.client);
      };

  std::string reference;
  for (const int workers : {1, 2, 4, 8}) {
    campaign::RunnerOptions runner_options;
    runner_options.workers = workers;
    const campaign::CampaignRunner runner{runner_options};
    VerdictTableSink sink;
    runner.run_streaming<ConformanceRecord>(campaign::SpecStream::view(specs),
                                            executor, sink);
    if (reference.empty()) {
      reference = sink.text();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(sink.text(), reference) << "workers=" << workers;
    }
  }
}

TEST(ScheduleCellTest, HuntIsWorkerCountInvariant) {
  std::string reference;
  for (const int workers : {1, 4}) {
    HuntOptions options = hunt_options("");
    options.workers = workers;
    FaultHunt hunt{options, hunt_profiles()};
    const HuntResult result = hunt.run();
    const std::string corpus = FaultHunt::corpus_text(result.corpus);
    if (reference.empty()) {
      reference = corpus;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(corpus, reference) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace lazyeye::conformance
