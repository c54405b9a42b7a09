// Crash-safety tests: cell journaling, exact resume, the fail-fast
// failure policy, and shard planning/merge.
//
// The kill(SIGKILL) test runs FIRST in this binary: it forks, and fork()
// is only safe here while no WorkerPool threads exist yet (the child runs
// its campaign inline with workers=1; the parent only spawns pool threads
// after reaping the child).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
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
#include "campaign/shard.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/wire.h"

namespace lazyeye::campaign {
namespace {

std::vector<ScenarioSpec> numbered_specs(std::size_t n) {
  std::vector<ScenarioSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].id = i;
    specs[i].seed = 1000 + i;
  }
  return specs;
}

/// Deterministic pure function of the spec — the "measurement".
std::uint64_t cell_value(const ScenarioSpec& s) {
  SplitMix64 mix{s.seed ^ (s.id * 0x9e3779b97f4a7c15ULL)};
  return mix.next();
}

std::function<std::uint64_t(const ScenarioSpec&)> value_executor() {
  return [](const ScenarioSpec& s) { return cell_value(s); };
}

JournalCodec<std::uint64_t> u64_codec() {
  JournalCodec<std::uint64_t> codec;
  codec.encode = [](const ScenarioSpec&, const std::uint64_t& v) {
    std::string out;
    for (int shift = 56; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>((v >> shift) & 0xFF));
    }
    return out;
  };
  codec.decode = [](std::string_view bytes) -> std::optional<std::uint64_t> {
    if (bytes.size() != 8) return std::nullopt;
    std::uint64_t v = 0;
    for (const char c : bytes) v = (v << 8) | static_cast<unsigned char>(c);
    return v;
  };
  return codec;
}

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

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CampaignRunner runner_with(int workers) {
  RunnerOptions options;
  options.workers = workers;
  return CampaignRunner{options};
}

// ----------------------------------------------------- kill -9 + resume ----
// Must stay the first test in this file (see the header comment).

#if defined(__unix__) || defined(__APPLE__)
TEST(JournalCrashTest, KillNineMidCampaignThenResumeIsExact) {
  constexpr std::size_t kCells = 120;
  constexpr std::size_t kKillAfter = 37;
  const auto specs = numbered_specs(kCells);
  const std::uint64_t identity = journal_identity("kill9", kCells, 1);
  const std::string path = tmp_path("kill9.journal");

  std::fflush(nullptr);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run the campaign inline (workers=1, no pool threads) and die
    // mid-run, after kKillAfter cells have been delivered and journaled.
    std::size_t executed = 0;
    const std::function<std::uint64_t(const ScenarioSpec&)> executor =
        [&executed](const ScenarioSpec& s) {
          if (executed == kKillAfter) raise(SIGKILL);
          ++executed;
          return cell_value(s);
        };
    JournalOptions options;
    options.path = path;
    options.identity = identity;
    CollectingSink<std::uint64_t> sink;
    const JournalCodec<std::uint64_t> codec = u64_codec();
    run_journaled<std::uint64_t>(runner_with(1), SpecStream::view(specs),
                                 executor, sink, options, codec);
    _exit(7);  // not reached: the campaign must die before finishing
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The journal is an in-order prefix: exactly the delivered cells.
  const JournalLoad load = load_journal(path);
  ASSERT_TRUE(load.exists);
  EXPECT_EQ(load.cells.size(), kKillAfter);
  EXPECT_FALSE(load.complete);

  // Resume in this process, multi-threaded, and byte-compare the aggregate
  // against an uninterrupted run.
  JournalOptions options;
  options.path = path;
  options.identity = identity;
  CollectingSink<std::uint64_t> resumed;
  const JournalCodec<std::uint64_t> codec = u64_codec();
  const JournaledRun run = run_journaled<std::uint64_t>(
      runner_with(4), SpecStream::view(specs), value_executor(), resumed,
      options, codec);
  EXPECT_TRUE(run.resumed);
  EXPECT_EQ(run.cells_replayed, kKillAfter);
  EXPECT_EQ(run.cells_run, kCells - kKillAfter);

  CollectingSink<std::uint64_t> reference;
  runner_with(4).run_streaming<std::uint64_t>(SpecStream::view(specs),
                                              value_executor(), reference);
  EXPECT_EQ(resumed.result().outcomes, reference.result().outcomes);
  ASSERT_EQ(resumed.result().specs.size(), kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(resumed.result().specs[i].id, i);
  }
  std::remove(path.c_str());
}
#endif  // unix

// ------------------------------------------------------------- format ----

TEST(JournalFormatTest, RoundTripsAllRecordTypes) {
  const std::string path = tmp_path("roundtrip.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 0xABCD, 0, 4);
    writer.append_cell(0, "alpha");
    writer.append_cell(1, "");
    writer.append_cell(2, "beta");
    writer.append_cell(3, "omega");
    writer.append_snapshot(4, "sink-state");
    writer.append_complete(4);
  }
  const JournalLoad load = load_journal(path);
  ASSERT_TRUE(load.exists);
  EXPECT_EQ(load.identity, 0xABCDu);
  EXPECT_EQ(load.cell_begin, 0u);
  EXPECT_EQ(load.cell_end, 4u);
  ASSERT_EQ(load.cells.size(), 4u);
  EXPECT_EQ(load.cells[0].payload, "alpha");
  EXPECT_EQ(load.cells[1].payload, "");
  EXPECT_EQ(load.cells[2].index, 2u);
  EXPECT_EQ(load.cells[2].payload, "beta");
  EXPECT_EQ(load.snapshot_state, "sink-state");
  EXPECT_EQ(load.snapshot_cells, 4u);
  EXPECT_TRUE(load.complete);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.resume_index(), 4u);
  std::remove(path.c_str());
}

TEST(JournalFormatTest, MissingFileIsAFreshCampaign) {
  const JournalLoad load = load_journal(tmp_path("never_written.journal"));
  EXPECT_FALSE(load.exists);
}

TEST(JournalFormatTest, IdentityIsAPureHash) {
  const std::uint64_t a = journal_identity("stream", 100, 42);
  EXPECT_EQ(a, journal_identity("stream", 100, 42));
  EXPECT_NE(a, journal_identity("stream2", 100, 42));
  EXPECT_NE(a, journal_identity("stream", 101, 42));
  EXPECT_NE(a, journal_identity("stream", 100, 43));
}

// ----------------------------------------------------------- recovery ----

TEST(JournalRecoveryTest, TornFinalRecordIsDroppedAndOverwritten) {
  const std::string path = tmp_path("torn.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 1, 0, 8);
    writer.append_cell(0, "abc");
    writer.append_cell(1, "def");
    writer.append_cell(2, "ghi");
  }
  // Simulate a crash mid-append: a partial frame at the tail.
  std::string bytes = read_file(path);
  const std::size_t intact_size = bytes.size();
  bytes.append("\x01\x00\x00", 3);
  write_file(path, bytes);

  const JournalLoad load = load_journal(path);
  ASSERT_TRUE(load.exists);
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(load.cells.size(), 3u);
  EXPECT_EQ(load.valid_bytes, intact_size);
  EXPECT_EQ(load.resume_index(), 3u);

  // Resuming truncates the torn tail and appends cleanly over it.
  {
    JournalWriter writer = JournalWriter::append(path, load.valid_bytes);
    writer.append_cell(3, "jkl");
  }
  const JournalLoad healed = load_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.cells.size(), 4u);
  EXPECT_EQ(healed.cells[3].payload, "jkl");
  std::remove(path.c_str());
}

TEST(JournalRecoveryTest, CorruptFinalRecordCrcIsATornTail) {
  const std::string path = tmp_path("tail_crc.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 1, 0, 8);
    writer.append_cell(0, "abc");
    writer.append_cell(1, "def");
  }
  std::string bytes = read_file(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5A);  // flip tail CRC
  write_file(path, bytes);
  const JournalLoad load = load_journal(path);
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(load.cells.size(), 1u);  // only the intact first record
  std::remove(path.c_str());
}

TEST(JournalRecoveryTest, TruncatedHeaderThrows) {
  const std::string path = tmp_path("short_header.journal");
  { JournalWriter::create(path, 1, 0, 8); }
  std::string bytes = read_file(path);
  bytes.resize(bytes.size() / 2);
  write_file(path, bytes);
  EXPECT_THROW(load_journal(path), JournalError);
  std::remove(path.c_str());
}

TEST(JournalRecoveryTest, CorruptHeaderCrcThrows) {
  const std::string path = tmp_path("header_crc.journal");
  { JournalWriter::create(path, 1, 0, 8); }
  std::string bytes = read_file(path);
  bytes[8] = static_cast<char>(bytes[8] ^ 0xFF);
  write_file(path, bytes);
  EXPECT_THROW(load_journal(path), JournalError);
  std::remove(path.c_str());
}

TEST(JournalWriteErrorTest, FullDeviceThrowsInsteadOfReportingDurable) {
  // Every write to /dev/full fails with ENOSPC, but only at the flush: the
  // header's fwrite lands in the stdio buffer and succeeds.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(JournalWriter::create("/dev/full", 1, 0, 8), JournalError);
}

TEST(JournalWriteErrorTest, UnsyncableDeviceIsNotAnError) {
  // fsync on /dev/null fails with EINVAL: nothing can be made durable there,
  // and every byte was accepted, so a discarded journal still works.
  if (!std::filesystem::exists("/dev/null")) GTEST_SKIP() << "no /dev/null";
  JournalWriter writer = JournalWriter::create("/dev/null", 1, 0, 8);
  writer.append_cell(0, "payload");
  EXPECT_NO_THROW(writer.sync());
}

TEST(JournalRecoveryTest, MidFileCorruptionThrowsNeverSkips) {
  const std::string path = tmp_path("midfile.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 1, 0, 8);
    for (std::uint64_t i = 0; i < 5; ++i) writer.append_cell(i, "payload");
  }
  // Flip a byte inside the SECOND record: damage that is not a torn tail
  // must refuse loudly instead of resuming past a hole.
  std::string bytes = read_file(path);
  const std::size_t record = 9 + 8 + 7;  // frame + index + "payload"
  const std::size_t offset = 34 + record + record / 2;
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x01);
  write_file(path, bytes);
  EXPECT_THROW(load_journal(path), JournalError);
  std::remove(path.c_str());
}

/// One CRC-framed record exactly as JournalWriter frames it: u8 type |
/// u32 payload_len | payload | u32 crc(type|len|payload).
std::string framed_record(std::uint8_t type, const std::string& payload) {
  std::string out;
  wire::put_u8(out, type);
  wire::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  wire::put_u32(out, util::crc32(out));
  return out;
}

TEST(JournalRecoveryTest, RetiredQuarantineTagAndUnknownTypesAreRefused) {
  // Type 2 once held in-process quarantine records. A CRC-valid record of
  // that type, or of any type never assigned, is refused wherever it sits:
  // skipping it would silently drop a cell from the resumed stream.
  const std::string path = tmp_path("unknown_type.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 1, 0, 8);
    writer.append_cell(0, "a");
  }
  const std::string prefix = read_file(path);
  std::string retired_body;
  wire::put_u64(retired_body, 1);    // index
  wire::put_u32(retired_body, 3);    // attempts
  wire::put_u8(retired_body, 0);     // timed-out flag
  retired_body.append("it failed");  // error text
  std::string next_cell;
  wire::put_u64(next_cell, 1);
  next_cell.append("b");

  for (const std::uint8_t type : {std::uint8_t{2}, std::uint8_t{0x7E}}) {
    const std::string record = framed_record(type, retired_body);
    for (const bool final_record : {true, false}) {
      std::string bytes = prefix + record;
      if (!final_record) bytes += framed_record(1, next_cell);
      write_file(path, bytes);
      try {
        load_journal(path);
        ADD_FAILURE() << "type " << int{type} << " accepted (final="
                      << final_record << ")";
      } catch (const JournalError& e) {
        EXPECT_NE(std::string{e.what()}.find("unknown record type"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  std::remove(path.c_str());
}

TEST(JournalRecoveryTest, NonContiguousCellIndexThrows) {
  const std::string path = tmp_path("gap.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 1, 0, 8);
    writer.append_cell(0, "a");
    writer.append_cell(2, "c");  // skipped cell 1: the prefix invariant broke
  }
  EXPECT_THROW(load_journal(path), JournalError);
  std::remove(path.c_str());
}

// ----------------------------------------------------- journaled runs ----

TEST(JournaledRunTest, IdentityMismatchRefusesLoudly) {
  const auto specs = numbered_specs(10);
  const std::string path = tmp_path("identity.journal");
  const JournalCodec<std::uint64_t> codec = u64_codec();
  JournalOptions options;
  options.path = path;
  options.identity = journal_identity("stream-a", specs.size(), 1);
  CollectingSink<std::uint64_t> sink;
  run_journaled<std::uint64_t>(runner_with(2), SpecStream::view(specs),
                               value_executor(), sink, options, codec);

  options.identity = journal_identity("stream-b", specs.size(), 1);
  CollectingSink<std::uint64_t> sink2;
  EXPECT_THROW(
      run_journaled<std::uint64_t>(runner_with(2), SpecStream::view(specs),
                                   value_executor(), sink2, options, codec),
      JournalError);
  std::remove(path.c_str());
}

TEST(JournaledRunTest, CellRangeMismatchRefusesLoudly) {
  const auto specs = numbered_specs(10);
  const std::string path = tmp_path("range.journal");
  const JournalCodec<std::uint64_t> codec = u64_codec();
  JournalOptions options;
  options.path = path;
  options.identity = journal_identity("range", specs.size(), 1);
  CollectingSink<std::uint64_t> sink;
  run_journaled<std::uint64_t>(runner_with(2), SpecStream::view(specs),
                               value_executor(), sink, options, codec);

  options.cell_begin = 2;
  options.cell_end = 8;
  CollectingSink<std::uint64_t> sink2;
  EXPECT_THROW(
      run_journaled<std::uint64_t>(runner_with(2), SpecStream::view(specs),
                                   value_executor(), sink2, options, codec),
      JournalError);
  std::remove(path.c_str());
}

TEST(JournaledRunTest, UndecodableRecordRefusesResume) {
  const auto specs = numbered_specs(6);
  const std::string path = tmp_path("undecodable.journal");
  const JournalCodec<std::uint64_t> codec = u64_codec();
  JournalOptions options;
  options.path = path;
  options.identity = journal_identity("undecodable", specs.size(), 1);
  CollectingSink<std::uint64_t> sink;
  run_journaled<std::uint64_t>(runner_with(2), SpecStream::view(specs),
                               value_executor(), sink, options, codec);

  // A codec whose schema "changed" decodes nothing: the resume must throw,
  // not silently skip journaled cells.
  JournalCodec<std::uint64_t> broken = u64_codec();
  broken.decode = [](std::string_view) -> std::optional<std::uint64_t> {
    return std::nullopt;
  };
  CollectingSink<std::uint64_t> sink2;
  EXPECT_THROW(
      run_journaled<std::uint64_t>(runner_with(2), SpecStream::view(specs),
                                   value_executor(), sink2, options, broken),
      JournalError);
  std::remove(path.c_str());
}

TEST(JournaledRunTest, InterruptedRunResumesByteIdenticalAtAnyWorkerCount) {
  constexpr std::size_t kCells = 96;
  const auto specs = numbered_specs(kCells);
  const std::uint64_t identity = journal_identity("resume", kCells, 1);
  const JournalCodec<std::uint64_t> codec = u64_codec();
  const std::string master = tmp_path("resume_master.journal");

  // Interrupt a 2-worker run partway through via a throwing executor (the
  // fail-fast default): the journal keeps the delivered prefix.
  {
    const std::function<std::uint64_t(const ScenarioSpec&)> trap =
        [](const ScenarioSpec& s) -> std::uint64_t {
      if (s.id == 70) throw std::runtime_error("interrupt");
      return cell_value(s);
    };
    JournalOptions options;
    options.path = master;
    options.identity = identity;
    CollectingSink<std::uint64_t> sink;
    EXPECT_THROW(run_journaled<std::uint64_t>(runner_with(2),
                                              SpecStream::view(specs), trap,
                                              sink, options, codec),
                 std::runtime_error);
  }
  const JournalLoad partial = load_journal(master);
  ASSERT_TRUE(partial.exists);
  ASSERT_FALSE(partial.complete);
  ASSERT_LT(partial.cells.size(), kCells);

  CollectingSink<std::uint64_t> reference;
  runner_with(4).run_streaming<std::uint64_t>(SpecStream::view(specs),
                                              value_executor(), reference);

  for (const int workers : {1, 2, 4, 8}) {
    const std::string path =
        tmp_path("resume_w" + std::to_string(workers) + ".journal");
    write_file(path, read_file(master));

    JournalOptions options;
    options.path = path;
    options.identity = identity;
    CollectingSink<std::uint64_t> resumed;
    const JournaledRun run = run_journaled<std::uint64_t>(
        runner_with(workers), SpecStream::view(specs), value_executor(),
        resumed, options, codec);
    EXPECT_TRUE(run.resumed);
    EXPECT_EQ(run.cells_replayed, partial.cells.size());
    EXPECT_EQ(run.cells_replayed + run.cells_run, kCells);
    EXPECT_EQ(resumed.result().outcomes, reference.result().outcomes)
        << "workers=" << workers;
    std::remove(path.c_str());
  }
  std::remove(master.c_str());
}

TEST(JournaledRunTest, CompleteJournalShortCircuitsAndReplays) {
  const auto specs = numbered_specs(20);
  const std::string path = tmp_path("complete.journal");
  const JournalCodec<std::uint64_t> codec = u64_codec();
  JournalOptions options;
  options.path = path;
  options.identity = journal_identity("complete", specs.size(), 1);

  CollectingSink<std::uint64_t> first;
  run_journaled<std::uint64_t>(runner_with(2), SpecStream::view(specs),
                               value_executor(), first, options, codec);

  // Second run: nothing executes; the sink is fed purely from the journal.
  std::atomic<int> executed{0};
  const std::function<std::uint64_t(const ScenarioSpec&)> counting =
      [&executed](const ScenarioSpec& s) {
        executed.fetch_add(1);
        return cell_value(s);
      };
  CollectingSink<std::uint64_t> second;
  const JournaledRun run = run_journaled<std::uint64_t>(
      runner_with(2), SpecStream::view(specs), counting, second, options,
      codec);
  EXPECT_TRUE(run.already_complete);
  EXPECT_EQ(run.cells_run, 0u);
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(second.result().outcomes, first.result().outcomes);
  std::remove(path.c_str());
}

// ----------------------------------------------------- failure policy ----

TEST(FailurePolicyTest, FailFastIsTheOnlyPolicy) {
  // The first executor throw fails the campaign, and the cell is not run
  // again: its world derives from its spec alone, so a retry would fail the
  // same way. The shard process is the isolation unit (shard.h).
  const auto specs = numbered_specs(10);
  std::atomic<int> cell4_attempts{0};
  const std::function<std::uint64_t(const ScenarioSpec&)> trap =
      [&cell4_attempts](const ScenarioSpec& s) -> std::uint64_t {
    if (s.id == 4) {
      ++cell4_attempts;
      throw std::runtime_error("boom");
    }
    return cell_value(s);
  };
  CollectingSink<std::uint64_t> sink;
  try {
    runner_with(2).run_streaming<std::uint64_t>(SpecStream::view(specs), trap,
                                                sink);
    ADD_FAILURE() << "a throwing cell did not fail the campaign";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(cell4_attempts.load(), 1);
  EXPECT_LE(sink.result().outcomes.size(), 4u);  // never past the hole
}

// ----------------------------------------------------------- sharding ----

TEST(ShardPlanTest, ContiguousNearEqualPartition) {
  const auto plan = shard_plan(10, 3);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[0].end, 4u);
  EXPECT_EQ(plan[1].begin, 4u);
  EXPECT_EQ(plan[1].end, 7u);
  EXPECT_EQ(plan[2].begin, 7u);
  EXPECT_EQ(plan[2].end, 10u);
  for (const ShardRange& r : plan) {
    EXPECT_EQ(r.shard, static_cast<int>(&r - plan.data()));
  }

  // More shards than cells: trailing shards are empty, coverage exact.
  const auto sparse = shard_plan(2, 4);
  ASSERT_EQ(sparse.size(), 4u);
  EXPECT_EQ(sparse[0].cells(), 1u);
  EXPECT_EQ(sparse[1].cells(), 1u);
  EXPECT_EQ(sparse[2].cells(), 0u);
  EXPECT_EQ(sparse[3].cells(), 0u);
}

TEST(ShardPlanTest, JournalPathsAreDistinct) {
  EXPECT_EQ(shard_journal_path("/tmp/base", 0), "/tmp/base.shard0.journal");
  EXPECT_EQ(shard_journal_path("/tmp/base", 3), "/tmp/base.shard3.journal");
}

/// Runs one shard of `specs` as its own journaled campaign (in process —
/// the fork/kill variant is the lazyeye_shard crashtest).
JournaledRun run_shard(
    const std::vector<ScenarioSpec>& specs, const std::string& base,
    std::uint64_t identity, const ShardRange& range,
    const std::function<std::uint64_t(const ScenarioSpec&)>& executor) {
  JournalOptions options;
  options.path = shard_journal_path(base, range.shard);
  options.identity = identity;
  options.cell_begin = range.begin;
  options.cell_end = range.end;
  CallbackSink<std::uint64_t> drop{[](const ScenarioSpec&, std::uint64_t) {}};
  return run_journaled<std::uint64_t>(runner_with(2), SpecStream::view(specs),
                                      executor, drop, options, u64_codec());
}

/// Merges the shard journals and checks every cell arrives in spec order
/// with the value an uninterrupted run computes.
void expect_merged_in_spec_order(const std::vector<ScenarioSpec>& specs,
                                 const std::string& base, int shards,
                                 std::uint64_t identity) {
  const JournalCodec<std::uint64_t> codec = u64_codec();
  std::vector<std::uint64_t> merged_indices;
  std::vector<std::uint64_t> merged_values;
  merge_shard_journals(base, shards, identity, specs.size(),
                       [&](std::uint64_t index, std::string_view payload) {
                         merged_indices.push_back(index);
                         const auto value = codec.decode(payload);
                         ASSERT_TRUE(value.has_value());
                         merged_values.push_back(*value);
                       });
  ASSERT_EQ(merged_indices.size(), specs.size()) << "shards=" << shards;
  ASSERT_EQ(merged_values.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(merged_indices[i], i);
    EXPECT_EQ(merged_values[i], cell_value(specs[i]));
  }
}

void remove_shard_journals(const std::string& base, int shards) {
  for (int k = 0; k < shards; ++k) {
    std::remove(shard_journal_path(base, k).c_str());
  }
}

TEST(ShardMergeTest, MergeReestablishesSpecOrder) {
  constexpr std::size_t kCells = 40;
  const auto specs = numbered_specs(kCells);

  for (const int shards : {2, 4}) {
    const std::uint64_t identity =
        journal_identity("merge", kCells, static_cast<std::uint64_t>(shards));
    const std::string base = tmp_path("merge" + std::to_string(shards));
    for (const ShardRange& range : shard_plan(kCells, shards)) {
      run_shard(specs, base, identity, range, value_executor());
    }
    expect_merged_in_spec_order(specs, base, shards, identity);

    // A missing shard journal must fail the merge, never fabricate cells.
    std::remove(shard_journal_path(base, 0).c_str());
    EXPECT_THROW(merge_shard_journals(base, shards, identity, kCells,
                                      [](std::uint64_t, std::string_view) {}),
                 JournalError);
    remove_shard_journals(base, shards);
  }
}

TEST(ShardMergeTest, ThrowingShardIsRefusedUntilRerunResumesIt) {
  // The isolation story that remains: a shard whose executor throws fails
  // alone and leaves an incomplete journal; merge refuses it until the
  // shard is rerun, resumes from that journal and completes.
  constexpr std::size_t kCells = 40;
  constexpr int kShards = 2;
  const auto specs = numbered_specs(kCells);
  const std::uint64_t identity = journal_identity("isolate", kCells, 1);
  const std::string base = tmp_path("isolate");
  const std::vector<ShardRange> plan = shard_plan(kCells, kShards);
  ASSERT_LT(13u, plan[0].end);

  const std::function<std::uint64_t(const ScenarioSpec&)> cursed =
      [](const ScenarioSpec& s) -> std::uint64_t {
    if (s.id == 13) throw std::runtime_error("cell 13 is cursed");
    return cell_value(s);
  };
  EXPECT_THROW(run_shard(specs, base, identity, plan[0], cursed),
               std::runtime_error);
  run_shard(specs, base, identity, plan[1], value_executor());

  const JournalLoad broken = load_journal(shard_journal_path(base, 0));
  ASSERT_TRUE(broken.exists);
  EXPECT_FALSE(broken.complete);
  EXPECT_LE(broken.cells.size(), 13u);  // an in-order prefix before the hole
  try {
    merge_shard_journals(base, kShards, identity, kCells,
                         [](std::uint64_t, std::string_view) {});
    ADD_FAILURE() << "merge accepted an incomplete shard journal";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string{e.what()}.find("incomplete"), std::string::npos)
        << e.what();
  }

  const JournaledRun rerun =
      run_shard(specs, base, identity, plan[0], value_executor());
  EXPECT_TRUE(rerun.resumed);
  EXPECT_EQ(rerun.cells_replayed, broken.cells.size());
  EXPECT_EQ(rerun.cells_replayed + rerun.cells_run, plan[0].cells());
  expect_merged_in_spec_order(specs, base, kShards, identity);
  remove_shard_journals(base, kShards);
}

}  // namespace
}  // namespace lazyeye::campaign
