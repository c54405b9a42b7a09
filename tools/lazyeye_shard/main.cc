// lazyeye_shard: multi-process sharded execution of the conformance
// differential matrix, with per-shard crash journals.
//
// Subcommands:
//
//   run    --base B --shard K --shards N   one shard, journaled; resumes an
//                                          existing journal. The unit a
//                                          supervisor (or `launch`) runs per
//                                          OS process.
//   launch --base B --shards N             forks one `run` child per shard
//                                          and waits. Re-running after a
//                                          crash resumes every incomplete
//                                          shard.
//   merge  --base B --shards N [--out F]   validates the N complete shard
//                                          journals and re-establishes spec
//                                          order into the verdict table —
//                                          byte-identical to a
//                                          single-process run.
//   crashtest --base B --shards N          the kill-9 harness: repeatedly
//                                          forks the shard fleet, SIGKILLs
//                                          it mid-campaign at a varied
//                                          delay, resumes, merges, and
//                                          byte-compares every round's table
//                                          against an uninterrupted
//                                          in-process reference. Exits
//                                          non-zero on any mismatch.
//
// Fork safety: the parent never starts WorkerPool threads before forking
// (each child's WorkerPool::shared() starts its own threads after the
// fork), and the crashtest computes its in-process reference AFTER all
// forking rounds for the same reason. fork_fleet checks this and refuses to
// fork otherwise.
#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campaign/journal.h"
#include "campaign/journal_sink.h"
#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/shard.h"
#include "campaign/sink.h"
#include "campaign/worker_pool.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/record_codec.h"
#include "util/strings.h"

using namespace lazyeye;

namespace {

struct Args {
  std::string cmd;
  std::string base;       // journal path base (and table output dir)
  std::string out;        // merge table output path
  int shards = 2;
  int shard = -1;         // `run` only
  int workers = 2;        // per shard
  int repetitions = 1;    // matrix scale (cells per fault kind multiplier)
  int rounds = 3;         // crashtest kill/resume rounds
  std::uint64_t seed = 1;
  std::uint64_t slow_ms = 0;  // per-cell wall slow-down (widens kill window)
  bool smoke = false;         // 3 profiles instead of the full pool
};

// Every count that sizes work or starts processes/threads has a fixed
// ceiling: `launch` and `crashtest` fork --shards children at once, each
// running --workers threads.
constexpr int kMaxShards = 256;
constexpr int kMaxWorkers = 256;
constexpr int kMaxReps = 1000;
constexpr int kMaxRounds = 100;
constexpr int kMaxSlowMs = 60'000;

int usage() {
  std::fprintf(
      stderr,
      "usage: lazyeye_shard <run|launch|merge|crashtest> --base <path>\n"
      "         [--shards N] [--shard K] [--workers W] [--reps R]\n"
      "         [--rounds C] [--seed S] [--slow-ms M] [--smoke]\n"
      "         [--out <table path>]\n"
      "  N in [1, %d], K in [0, N), W in [0, %d] (0 = one per core),\n"
      "  R in [1, %d], C in [1, %d], M in [0, %d]\n",
      kMaxShards, kMaxWorkers, kMaxReps, kMaxRounds, kMaxSlowMs);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.cmd = argv[1];
  for (int a = 2; a < argc; ++a) {
    const char* flag = argv[a];
    const auto next = [&]() -> const char* {
      return a + 1 < argc ? argv[++a] : nullptr;
    };
    const char* value = nullptr;
    bool ok = true;
    if (std::strcmp(flag, "--base") == 0 && (value = next())) {
      args.base = value;
    } else if (std::strcmp(flag, "--out") == 0 && (value = next())) {
      args.out = value;
    } else if (std::strcmp(flag, "--shards") == 0 && (value = next())) {
      ok = parse_bounded(value, 1, kMaxShards, args.shards);
    } else if (std::strcmp(flag, "--shard") == 0 && (value = next())) {
      ok = parse_bounded(value, 0, kMaxShards - 1, args.shard);
    } else if (std::strcmp(flag, "--workers") == 0 && (value = next())) {
      ok = parse_bounded(value, 0, kMaxWorkers, args.workers);
    } else if (std::strcmp(flag, "--reps") == 0 && (value = next())) {
      ok = parse_bounded(value, 1, kMaxReps, args.repetitions);
    } else if (std::strcmp(flag, "--rounds") == 0 && (value = next())) {
      ok = parse_bounded(value, 1, kMaxRounds, args.rounds);
    } else if (std::strcmp(flag, "--seed") == 0 && (value = next())) {
      ok = parse_bounded(value, 0, UINT64_MAX, args.seed);
    } else if (std::strcmp(flag, "--slow-ms") == 0 && (value = next())) {
      ok = parse_bounded(value, 0, kMaxSlowMs, args.slow_ms);
    } else if (std::strcmp(flag, "--smoke") == 0) {
      args.smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", flag);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad %s: %s\n", flag, value);
      return false;
    }
  }
  return !args.base.empty();
}

/// The shared campaign definition every subcommand (and every process)
/// derives identically from the CLI arguments.
struct Matrix {
  conformance::ConformanceHarness harness;
  std::vector<clients::ClientProfile> profiles;
  std::vector<campaign::ScenarioSpec> specs;
  std::uint64_t identity = 0;

  explicit Matrix(const Args& args)
      : harness{{.seed = args.seed}},
        profiles{clients::local_testbed_profiles()} {
    if (args.smoke && profiles.size() > 3) profiles.resize(3);
    specs = harness.differential_specs(profiles, args.repetitions);
    identity = campaign::journal_identity("conformance-differential",
                                          specs.size(), args.seed);
  }
};

campaign::JournalCodec<conformance::ConformanceRecord> record_codec() {
  return {
      .encode = [](const campaign::ScenarioSpec&,
                   const conformance::ConformanceRecord& record) {
        return conformance::encode_record(record);
      },
      .decode = [](std::string_view bytes) {
        return conformance::decode_record(bytes);
      },
  };
}

/// Runs (or resumes) one shard's journaled sub-campaign in this process.
int run_shard(const Args& args, const Matrix& matrix) {
  const auto plan = campaign::shard_plan(matrix.specs.size(), args.shards);
  if (args.shard < 0 || args.shard >= args.shards) {
    std::fprintf(stderr, "run: --shard must be in [0, %d)\n", args.shards);
    return 2;
  }
  const campaign::ShardRange range = plan[static_cast<std::size_t>(args.shard)];

  campaign::Registry<conformance::ConformanceRecord> registry;
  conformance::register_conformance_executor(registry, matrix.harness,
                                             matrix.profiles);
  const std::uint64_t slow_ms = args.slow_ms;
  const std::function<conformance::ConformanceRecord(
      const campaign::ScenarioSpec&)>
      executor = [&registry, slow_ms](const campaign::ScenarioSpec& spec) {
        if (slow_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds{slow_ms});
        }
        return registry.execute(spec);
      };

  const campaign::CampaignRunner runner{{.workers = args.workers}};

  campaign::JournalOptions journal;
  journal.path = campaign::shard_journal_path(args.base, args.shard);
  journal.identity = matrix.identity;
  journal.cell_begin = range.begin;
  journal.cell_end = range.end;

  // Drops each cell: shard results live in the journal; merge rebuilds the
  // table from the journals alone.
  campaign::CallbackSink<conformance::ConformanceRecord> sink{
      [](const campaign::ScenarioSpec&, conformance::ConformanceRecord) {}};
  const campaign::SpecStream stream = campaign::SpecStream::view(matrix.specs);
  const campaign::JournaledRun result = campaign::run_journaled<
      conformance::ConformanceRecord>(runner, stream, executor, sink, journal,
                                      record_codec());
  std::printf("shard %d: cells [%llu, %llu) %s (replayed %llu, ran %llu)\n",
              args.shard, static_cast<unsigned long long>(range.begin),
              static_cast<unsigned long long>(range.end),
              result.already_complete
                  ? "already complete"
                  : (result.resumed ? "resumed" : "fresh run"),
              static_cast<unsigned long long>(result.cells_replayed),
              static_cast<unsigned long long>(result.cells_run));
  return 0;
}

/// Forks one run_shard child per shard; returns the child pids.
std::vector<pid_t> fork_fleet(const Args& args, const Matrix& matrix) {
  // A child inherits the pool's state but none of its threads: one forked
  // mid-campaign could wait forever on a lock a vanished thread held.
  const int pool_threads = campaign::WorkerPool::shared().threads_started();
  if (pool_threads != 0) {
    std::fprintf(stderr,
                 "lazyeye_shard: refusing to fork with %d worker pool "
                 "threads running\n",
                 pool_threads);
    std::exit(1);
  }
  std::vector<pid_t> pids;
  for (int shard = 0; shard < args.shards; ++shard) {
    std::fflush(nullptr);  // no duplicated stdio buffers in the children
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      Args child = args;
      child.shard = shard;
      const int rc = run_shard(child, matrix);
      std::fflush(nullptr);
      _exit(rc);  // never unwind into the parent's state
    }
    pids.push_back(pid);
  }
  return pids;
}

/// Waits for every child; returns true when all exited zero.
bool reap_fleet(const std::vector<pid_t>& pids, bool expect_clean) {
  bool ok = true;
  for (const pid_t pid : pids) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0) {
      std::perror("waitpid");
      ok = false;
      continue;
    }
    if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      if (expect_clean) {
        std::fprintf(stderr, "shard child %d exited abnormally (status %d)\n",
                     static_cast<int>(pid), status);
      }
      ok = false;
    }
  }
  return ok;
}

int launch(const Args& args, const Matrix& matrix) {
  const std::vector<pid_t> pids = fork_fleet(args, matrix);
  if (!reap_fleet(pids, /*expect_clean=*/true)) return 1;
  std::printf("launch: all %d shards complete\n", args.shards);
  return 0;
}

/// Merges the complete shard journals into the verdict table text.
std::string merge_table(const Args& args, const Matrix& matrix) {
  conformance::VerdictTableSink table;
  table.begin(matrix.specs.size());
  campaign::merge_shard_journals(
      args.base, args.shards, matrix.identity, matrix.specs.size(),
      [&table, &matrix](std::uint64_t index, std::string_view payload) {
        auto record = conformance::decode_record(payload);
        if (!record.has_value()) {
          throw campaign::JournalError(
              "merge: undecodable cell record at index " +
              std::to_string(index));
        }
        table.cell(matrix.specs[static_cast<std::size_t>(index)],
                   std::move(*record));
      });
  table.end();
  return table.text();
}

int merge(const Args& args, const Matrix& matrix) {
  const std::string table = merge_table(args, matrix);
  if (args.out.empty()) {
    const bool written =
        std::fwrite(table.data(), 1, table.size(), stdout) == table.size();
    if (std::fflush(stdout) != 0 || !written) {
      std::fprintf(stderr, "cannot write the table to stdout\n");
      return 1;
    }
    return 0;
  }
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  const bool written =
      std::fwrite(table.data(), 1, table.size(), f) == table.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("merge: wrote %zu cells to %s\n", matrix.specs.size(),
              args.out.c_str());
  return 0;
}

void remove_journals(const Args& args) {
  for (int shard = 0; shard < args.shards; ++shard) {
    std::remove(campaign::shard_journal_path(args.base, shard).c_str());
  }
}

bool all_shards_complete(const Args& args, const Matrix& matrix) {
  const auto plan = campaign::shard_plan(matrix.specs.size(), args.shards);
  for (const campaign::ShardRange& range : plan) {
    try {
      const campaign::JournalLoad load = campaign::load_journal(
          campaign::shard_journal_path(args.base, range.shard));
      if (!load.exists || !load.complete) return false;
    } catch (const campaign::JournalError&) {
      return false;
    }
  }
  return true;
}

/// The kill-9 acceptance harness (see file comment).
int crashtest(const Args& args, const Matrix& matrix) {
  std::printf("crashtest: %zu cells, %d shards, %d workers/shard, %d rounds\n",
              matrix.specs.size(), args.shards, args.workers, args.rounds);

  std::vector<std::string> tables;
  for (int round = 0; round < args.rounds; ++round) {
    remove_journals(args);
    // Varied, deterministic kill delay: early rounds kill almost
    // immediately (mid-first-cells), later rounds kill deeper into the run.
    const std::uint64_t kill_delay_ms = 3 + 13 * static_cast<std::uint64_t>(round);

    // Crash phase: fork the fleet, let it run ~kill_delay, SIGKILL it all.
    std::vector<pid_t> pids = fork_fleet(args, matrix);
    std::this_thread::sleep_for(std::chrono::milliseconds{kill_delay_ms});
    for (const pid_t pid : pids) kill(pid, SIGKILL);
    reap_fleet(pids, /*expect_clean=*/false);  // killed children: not clean

    // Resume phase: fork again, let every shard finish from its journal.
    // (A shard that happened to finish before the kill is already_complete.)
    int resumes = 0;
    while (!all_shards_complete(args, matrix)) {
      if (++resumes > 10) {
        std::fprintf(stderr, "crashtest: shards did not converge\n");
        return 1;
      }
      pids = fork_fleet(args, matrix);
      if (!reap_fleet(pids, /*expect_clean=*/true)) {
        std::fprintf(stderr, "crashtest: resume fleet failed\n");
        return 1;
      }
    }

    tables.push_back(merge_table(args, matrix));
    std::printf("  round %d: killed at ~%llu ms, resumed, merged %zu bytes\n",
                round, static_cast<unsigned long long>(kill_delay_ms),
                tables.back().size());
  }

  // Reference: an uninterrupted single-process run. Computed after ALL
  // forking (above) — it spins up pool threads, and forking a threaded
  // parent is undefined behaviour territory.
  campaign::Registry<conformance::ConformanceRecord> registry;
  conformance::register_conformance_executor(registry, matrix.harness,
                                             matrix.profiles);
  const campaign::CampaignRunner runner{{.workers = args.workers}};
  conformance::VerdictTableSink reference;
  registry.run(runner, matrix.specs, reference);

  bool ok = true;
  for (std::size_t round = 0; round < tables.size(); ++round) {
    if (tables[round] != reference.text()) {
      std::fprintf(stderr,
                   "crashtest FAILED: round %zu merged table (%zu bytes) != "
                   "uninterrupted reference (%zu bytes)\n",
                   round, tables[round].size(), reference.text().size());
      ok = false;
    }
  }
  remove_journals(args);
  if (!ok) return 1;
  std::printf(
      "crashtest PASSED: %d kill-9/resume rounds all merged byte-identical "
      "to the uninterrupted run (%zu bytes, %d violations)\n",
      args.rounds, reference.text().size(), reference.total_violations());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  try {
    const Matrix matrix{args};
    if (args.cmd == "run") return run_shard(args, matrix);
    if (args.cmd == "launch") return launch(args, matrix);
    if (args.cmd == "merge") return merge(args, matrix);
    if (args.cmd == "crashtest") return crashtest(args, matrix);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lazyeye_shard: %s\n", e.what());
    return 1;
  }
  return usage();
}
