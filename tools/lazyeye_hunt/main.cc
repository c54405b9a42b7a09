// lazyeye_hunt: seeded, crash-safe, coverage-guided hunt for compound fault
// schedules that break (or split) Happy Eyeballs client behaviour.
//
// Subcommands:
//
//   hunt --journal J [--corpus C]     run (or resume) a journaled hunt. The
//        [--budget N] [--seed S]      journal makes SIGKILL at any instant
//        [--snapshot-every K]         recoverable: re-running the same
//        [--workers W] [--fetches F]  command resumes from the last snapshot
//        [--smoke]                    and finishes to a byte-identical
//                                     corpus (tests/fault_search_test.cc).
//   show --corpus C                   print a corpus file with one replay
//                                     command per entry.
//
// Both exit 1 when stdout cannot take their whole report.
//
// Replay contract: every corpus schedule reproduces verdict-for-verdict via
//
//   ./build/example_conformance_probe "<client>" --schedule-hex <hex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "clients/profiles.h"
#include "conformance/schedule.h"
#include "conformance/search.h"
#include "util/strings.h"

using namespace lazyeye;

namespace {

// Fixed ceilings of the counts: --workers starts that many threads, and
// --budget and --snapshot-every size the journal.
constexpr int kMaxBudget = 1 << 20;
constexpr int kMaxWorkers = 256;
constexpr int kMaxFetches = 16;

int usage() {
  std::fprintf(
      stderr,
      "usage: lazyeye_hunt hunt --journal <path> [--corpus <path>]\n"
      "         [--budget N] [--seed S] [--snapshot-every K] [--workers W]\n"
      "         [--fetches F] [--smoke]\n"
      "       lazyeye_hunt show --corpus <path>\n"
      "  N and K in [1, %d], W in [1, %d], F in [1, %d]\n",
      kMaxBudget, kMaxWorkers, kMaxFetches);
  return 2;
}

struct Args {
  std::string cmd;
  std::string journal;
  std::string corpus;
  std::uint64_t seed = 1;
  int budget = 64;
  int snapshot_every = 16;
  int workers = 1;
  int fetches = 2;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.cmd = argv[1];
  for (int a = 2; a < argc; ++a) {
    const auto next = [&]() -> const char* {
      return a + 1 < argc ? argv[++a] : nullptr;
    };
    const char* value = nullptr;
    if (std::strcmp(argv[a], "--journal") == 0 && (value = next())) {
      args.journal = value;
    } else if (std::strcmp(argv[a], "--corpus") == 0 && (value = next())) {
      args.corpus = value;
    } else if (std::strcmp(argv[a], "--seed") == 0 && (value = next())) {
      if (!parse_bounded(value, 0, UINT64_MAX, args.seed)) {
        std::fprintf(stderr, "bad --seed: %s\n", value);
        return false;
      }
    } else if (std::strcmp(argv[a], "--budget") == 0 && (value = next())) {
      if (!parse_bounded(value, 1, kMaxBudget, args.budget)) {
        std::fprintf(stderr, "bad --budget: %s\n", value);
        return false;
      }
    } else if (std::strcmp(argv[a], "--snapshot-every") == 0 &&
               (value = next())) {
      if (!parse_bounded(value, 1, kMaxBudget, args.snapshot_every)) {
        std::fprintf(stderr, "bad --snapshot-every: %s\n", value);
        return false;
      }
    } else if (std::strcmp(argv[a], "--workers") == 0 && (value = next())) {
      if (!parse_bounded(value, 1, kMaxWorkers, args.workers)) {
        std::fprintf(stderr, "bad --workers: %s\n", value);
        return false;
      }
    } else if (std::strcmp(argv[a], "--fetches") == 0 && (value = next())) {
      if (!parse_bounded(value, 1, kMaxFetches, args.fetches)) {
        std::fprintf(stderr, "bad --fetches: %s\n", value);
        return false;
      }
    } else if (std::strcmp(argv[a], "--smoke") == 0) {
      args.smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[a]);
      return false;
    }
  }
  if (args.cmd == "hunt") return !args.journal.empty();
  if (args.cmd == "show") return !args.corpus.empty();
  return false;
}

/// Exit status once a command's report is printed: 1, said on stderr, when
/// stdout could not take all of it (a full disk, a closed pipe).
int stdout_status() {
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "cannot write the report to stdout\n");
    return 1;
  }
  return 0;
}

int hunt(const Args& args) {
  conformance::HuntOptions options;
  options.seed = args.seed;
  options.budget = args.budget;
  options.snapshot_every = args.snapshot_every;
  options.workers = args.workers;
  options.fetches = args.fetches;
  options.journal_path = args.journal;
  options.conformance.seed = args.seed;

  std::vector<clients::ClientProfile> profiles =
      clients::local_testbed_profiles();
  if (args.smoke && profiles.size() > 3) profiles.resize(3);

  conformance::FaultHunt hunt{options, std::move(profiles)};
  const conformance::HuntResult result = hunt.run();

  std::printf(
      "hunt %s: %d candidates (seed %llu), %d violating, corpus %zu "
      "schedules, %zu coverage elements\n",
      result.resumed ? "resumed" : "complete", result.candidates,
      static_cast<unsigned long long>(args.seed), result.violating_candidates,
      result.corpus.size(), result.coverage.size());
  if (!args.corpus.empty()) {
    conformance::FaultHunt::write_corpus(args.corpus, result.corpus);
    std::printf("corpus written to %s\n", args.corpus.c_str());
  }
  return stdout_status();
}

int show(const Args& args) {
  const std::vector<conformance::CorpusEntry> corpus =
      conformance::FaultHunt::load_corpus(args.corpus);
  std::printf("%zu corpus schedules in %s\n", corpus.size(),
              args.corpus.c_str());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const conformance::CorpusEntry& entry = corpus[i];
    std::printf("[%3zu] entries=%zu violations=%d%s\n", i,
                entry.schedule.entries.size(), entry.violations,
                entry.minimized ? " (minimized)" : "");
    std::printf("      replay: ./build/example_conformance_probe <client> "
                "--schedule-hex %s\n",
                conformance::schedule_to_hex(entry.schedule).c_str());
  }
  return stdout_status();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    if (args.cmd == "hunt") return hunt(args);
    if (args.cmd == "show") return show(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lazyeye_hunt: %s\n", e.what());
    return 1;
  }
  return usage();
}
