// Campaign engine tests (API v2): typed payload dispatch through the
// executor registry, streaming sink delivery order, runner sharding edge
// semantics, and the core determinism contract — the same spec matrix with
// the same seeds produces byte-identical aggregated results for 1 worker
// and 4 workers, across all three measurement layers and for mixed-kind
// matrices that batch several layers into one worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <variant>

#include "campaign/registry.h"
#include "campaign/result.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"
#include "campaign/worker_pool.h"
#include "clients/profiles.h"
#include "resolverlab/lab.h"
#include "testbed/testbed.h"
#include "util/strings.h"
#include "webtool/webtool.h"

namespace lazyeye::campaign {
namespace {

std::vector<ScenarioSpec> numbered_specs(std::size_t n) {
  std::vector<ScenarioSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].id = i;
    specs[i].seed = 100 + i;
  }
  return specs;
}

/// Generates every cell of `stream`, for tests that need a vector.
std::vector<ScenarioSpec> materialize(const SpecStream& stream) {
  std::vector<ScenarioSpec> specs;
  specs.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) specs.push_back(stream.at(i));
  return specs;
}

CampaignRunner runner_with(int workers) {
  RunnerOptions options;
  options.workers = workers;
  return CampaignRunner{options};
}

// ------------------------------------------------------------- payload ----

TEST(CasePayloadTest, KindTracksAlternative) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.kind(), CaseKind::kCad);  // default payload
  spec.payload = ResolverCellCase{"Unbound", ms(100)};
  EXPECT_EQ(spec.kind(), CaseKind::kResolverCell);
  ASSERT_NE(spec.get_if<ResolverCellCase>(), nullptr);
  EXPECT_EQ(spec.get_if<ResolverCellCase>()->service, "Unbound");
  EXPECT_EQ(spec.get_if<CadCase>(), nullptr);
}

TEST(CasePayloadTest, NamesAreStableAndExhaustive) {
  EXPECT_STREQ(case_name(CadCase{}), "cad");
  EXPECT_STREQ(case_name(ResolutionDelayCase{}), "rd");
  EXPECT_STREQ(case_name(AddressSelectionCase{}), "addr-selection");
  EXPECT_STREQ(case_name(WebRepetitionCase{}), "webtool-rep");
  EXPECT_STREQ(case_name(ResolverCellCase{}), "resolver-cell");
  // The payload-typed and discriminator-typed name functions must agree for
  // every kind (both are tied to CasePayload at compile time).
  EXPECT_STREQ(case_kind_name(CaseKind::kCad), case_name(CadCase{}));
  EXPECT_STREQ(case_kind_name(CaseKind::kResolutionDelay),
               case_name(ResolutionDelayCase{}));
  EXPECT_STREQ(case_kind_name(CaseKind::kAddressSelection),
               case_name(AddressSelectionCase{}));
  EXPECT_STREQ(case_kind_name(CaseKind::kWebRepetition),
               case_name(WebRepetitionCase{}));
  EXPECT_STREQ(case_kind_name(CaseKind::kResolverCell),
               case_name(ResolverCellCase{}));
}

// ------------------------------------------------------------- runner ----

TEST(CampaignRunnerTest, ResultsComeBackInSpecOrder) {
  const auto specs = numbered_specs(64);
  const auto results = runner_with(4).run<std::uint64_t>(
      specs, [](const ScenarioSpec& s) { return s.seed * 3; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], (100 + i) * 3);
  }
}

TEST(CampaignRunnerTest, EveryCellRunsExactlyOnce) {
  const auto specs = numbered_specs(50);
  std::atomic<int> calls{0};
  runner_with(4).run<int>(specs, [&](const ScenarioSpec& s) {
    calls.fetch_add(1);
    return static_cast<int>(s.id);
  });
  EXPECT_EQ(calls.load(), 50);
}

TEST(CampaignRunnerTest, ResolvedWorkersClampsToJobAndHardware) {
  EXPECT_EQ(runner_with(8).resolved_workers(3), 3);
  EXPECT_EQ(runner_with(2).resolved_workers(100), 2);
  EXPECT_GE(runner_with(0).resolved_workers(100), 1);  // auto
  EXPECT_EQ(runner_with(4).resolved_workers(0), 1);
}

TEST(CampaignRunnerTest, ProgressCoversEveryCell) {
  RunnerOptions options;
  options.workers = 4;
  std::set<std::size_t> seen;
  std::size_t last_total = 0;
  options.progress = [&](std::size_t done, std::size_t total) {
    seen.insert(done);
    last_total = total;
  };
  CampaignRunner runner{options};
  runner.run<int>(numbered_specs(20),
                  [](const ScenarioSpec& s) { return static_cast<int>(s.id); });
  EXPECT_EQ(seen.size(), 20u);  // 1..20, serialised, no duplicates
  EXPECT_EQ(*seen.rbegin(), 20u);
  EXPECT_EQ(last_total, 20u);
}

TEST(CampaignRunnerTest, ProgressFiresExactlyCellsTotalTimesMonotonically) {
  RunnerOptions options;
  options.workers = 4;
  std::vector<std::size_t> counts;
  std::size_t total_seen = 0;
  options.progress = [&](std::size_t done, std::size_t total) {
    counts.push_back(done);  // calls are serialised by the runner
    total_seen = total;
  };
  CampaignRunner runner{options};
  const std::size_t cells_total = 33;
  runner.run<int>(numbered_specs(cells_total),
                  [](const ScenarioSpec& s) { return static_cast<int>(s.id); });
  ASSERT_EQ(counts.size(), cells_total);  // exactly once per cell
  EXPECT_EQ(total_seen, cells_total);
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], counts[i - 1]);  // monotonically non-decreasing
  }
  EXPECT_EQ(counts.back(), cells_total);
}

TEST(CampaignRunnerTest, ExecutorExceptionPropagates) {
  const auto specs = numbered_specs(16);
  EXPECT_THROW(
      runner_with(4).run<int>(specs,
                              [](const ScenarioSpec& s) {
                                if (s.id == 7) {
                                  throw std::runtime_error("cell 7 boom");
                                }
                                return 0;
                              }),
      std::runtime_error);
}

TEST(CampaignRunnerTest, FirstExecutorExceptionRethrownOnCallingThread) {
  const auto specs = numbered_specs(32);
  const std::thread::id caller = std::this_thread::get_id();
  std::string caught;
  std::thread::id catcher;
  try {
    runner_with(4).run<int>(specs, [](const ScenarioSpec& s) -> int {
      throw std::runtime_error(
          lazyeye::str_format("cell %llu boom",
                              static_cast<unsigned long long>(s.id)));
    });
  } catch (const std::runtime_error& e) {
    caught = e.what();
    catcher = std::this_thread::get_id();
  }
  // The pool drains and the *first* stored exception surfaces on the thread
  // that called run(), not on a worker.
  EXPECT_EQ(catcher, caller);
  EXPECT_NE(caught.find("boom"), std::string::npos);
}

TEST(CampaignRunnerTest, ResultsIdenticalForEveryReorderCap) {
  // The backpressure cap is a scheduling knob only: 8 workers with
  // max_reorder_ahead 1, 4, and unbounded must all reproduce the serial
  // delivery byte-for-byte (order and content).
  const auto specs = numbered_specs(48);
  const std::function<std::uint64_t(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return s.seed * 31 + s.id; };

  auto run_with = [&](int workers, std::size_t cap) {
    RunnerOptions options;
    options.workers = workers;
    options.max_reorder_ahead = cap;
    CampaignRunner runner{options};
    std::vector<std::uint64_t> delivered;
    CallbackSink<std::uint64_t> sink{
        [&delivered](const ScenarioSpec&, std::uint64_t v) {
          delivered.push_back(v);
        }};
    runner.run_streaming<std::uint64_t>(specs, executor, sink);
    return delivered;
  };

  const auto serial = run_with(1, 0);
  // SIZE_MAX guards the gate's saturating window arithmetic: a huge cap
  // must behave as unbounded, not wrap and park every claimer forever.
  for (const std::size_t cap :
       {std::size_t{1}, std::size_t{4}, std::size_t{0},
        std::numeric_limits<std::size_t>::max()}) {
    EXPECT_EQ(run_with(8, cap), serial) << "cap=" << cap;
  }
}

TEST(CampaignRunnerTest, SlowHeadCellNeverOverflowsTheReorderCap) {
  // Adversarial workload from the runner.h pathology note: cell 0 is
  // pathologically slow while every other cell completes instantly. Without
  // backpressure the whole matrix parks behind cell 0; with
  // max_reorder_ahead the claim cursor stalls instead, so the pending
  // buffer high-water must stay at or under the cap.
  const auto specs = numbered_specs(64);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{4}}) {
    RunnerOptions options;
    options.workers = 8;
    options.max_reorder_ahead = cap;
    CampaignRunner runner{options};
    const std::function<int(const ScenarioSpec&)> executor =
        [](const ScenarioSpec& s) {
          if (s.id == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          return static_cast<int>(s.id);
        };
    std::vector<int> delivered;
    CallbackSink<int> sink{[&delivered](const ScenarioSpec&, int v) {
      delivered.push_back(v);
    }};
    runner.run_streaming<int>(specs, executor, sink);

    ASSERT_EQ(delivered.size(), 64u);
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      EXPECT_EQ(delivered[i], static_cast<int>(i));
    }
    EXPECT_LE(runner.last_run_stats().reorder_high_water, cap) << "cap=" << cap;
    EXPECT_EQ(runner.last_run_stats().cells, 64u);
  }
}

TEST(CampaignRunnerTest, GatedRunStillPropagatesExecutorExceptions) {
  // A failing executor must not leave gated claimers parked forever: the
  // claim gate is released and the first exception surfaces on the caller.
  const auto specs = numbered_specs(40);
  RunnerOptions options;
  options.workers = 8;
  options.max_reorder_ahead = 2;
  CampaignRunner runner{options};
  EXPECT_THROW(
      runner.run<int>(specs,
                      [](const ScenarioSpec& s) -> int {
                        if (s.id == 5) throw std::runtime_error("head boom");
                        return 0;
                      }),
      std::runtime_error);
}

TEST(CampaignRunnerTest, ThrowingProgressHookFailsTheCampaign) {
  // A hook exception must surface like an executor exception (and must not
  // unwind through the pool while workers still run the campaign's locals).
  for (const int workers : {1, 4}) {
    RunnerOptions options;
    options.workers = workers;
    options.progress = [](std::size_t done, std::size_t) {
      if (done == 3) throw std::runtime_error("hook boom");
    };
    CampaignRunner runner{options};
    EXPECT_THROW(
        runner.run<int>(numbered_specs(16),
                        [](const ScenarioSpec& s) {
                          return static_cast<int>(s.id);
                        }),
        std::runtime_error)
        << "workers=" << workers;
  }
}

// --------------------------------------------------------- worker pool ----

TEST(WorkerPoolTest, NestedCampaignOnTheSamePoolDoesNotDeadlock) {
  // An executor that itself runs a multi-worker campaign re-enters the
  // pool's run_job from inside a job body; the pool must detect this and
  // run the inner campaign on transient threads instead of queueing behind
  // the (still running) outer campaign.
  WorkerPool pool;
  RunnerOptions outer_options;
  outer_options.workers = 3;
  outer_options.pool = &pool;
  CampaignRunner outer{outer_options};

  const auto outer_totals = outer.run<std::uint64_t>(
      numbered_specs(6), [&pool](const ScenarioSpec& outer_spec) {
        RunnerOptions inner_options;
        inner_options.workers = 2;
        inner_options.pool = &pool;
        const auto inner = CampaignRunner{inner_options}.run<std::uint64_t>(
            numbered_specs(8),
            [](const ScenarioSpec& s) { return s.seed; });
        std::uint64_t total = outer_spec.seed;
        for (const std::uint64_t v : inner) total += v;
        return total;
      });

  const auto serial_inner = runner_with(1).run<std::uint64_t>(
      numbered_specs(8), [](const ScenarioSpec& s) { return s.seed; });
  std::uint64_t inner_sum = 0;
  for (const std::uint64_t v : serial_inner) inner_sum += v;
  for (std::size_t i = 0; i < outer_totals.size(); ++i) {
    EXPECT_EQ(outer_totals[i], numbered_specs(6)[i].seed + inner_sum);
  }
}

TEST(WorkerPoolTest, CrossPoolNestedCampaignDoesNotDeadlock) {
  // A -> B -> A: an executor on pool A campaigns on pool B, whose workers
  // campaign back on pool A while A's outer campaign still holds its job
  // slot. The running-pool set travels with the job into every worker, so
  // the innermost run detects the recursion and uses transient threads.
  WorkerPool pool_a;
  WorkerPool pool_b;
  auto runner_on = [](WorkerPool& pool) {
    RunnerOptions options;
    options.workers = 2;
    options.pool = &pool;
    return CampaignRunner{options};
  };

  const auto totals = runner_on(pool_a).run<std::uint64_t>(
      numbered_specs(4), [&](const ScenarioSpec& outer_spec) {
        const auto mids = runner_on(pool_b).run<std::uint64_t>(
            numbered_specs(3), [&](const ScenarioSpec& mid_spec) {
              const auto inner = runner_on(pool_a).run<std::uint64_t>(
                  numbered_specs(2),
                  [](const ScenarioSpec& s) { return s.seed; });
              std::uint64_t total = mid_spec.seed;
              for (const std::uint64_t v : inner) total += v;
              return total;
            });
        std::uint64_t total = outer_spec.seed;
        for (const std::uint64_t v : mids) total += v;
        return total;
      });

  const std::uint64_t inner_sum = 100 + 101;
  const std::uint64_t mid_sum = 3 * inner_sum + 100 + 101 + 102;
  ASSERT_EQ(totals.size(), 4u);
  for (std::size_t i = 0; i < totals.size(); ++i) {
    EXPECT_EQ(totals[i], 100 + i + mid_sum);
  }
}

TEST(WorkerPoolTest, ThreadsPersistAcrossCampaigns) {
  WorkerPool pool;
  RunnerOptions options;
  options.workers = 4;
  options.pool = &pool;
  CampaignRunner runner{options};

  const auto specs = numbered_specs(32);
  const std::function<std::uint64_t(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return s.seed; };

  const auto first = runner.run<std::uint64_t>(specs, executor);
  const int threads_after_first = pool.threads_started();
  EXPECT_EQ(threads_after_first, 3);  // workers - 1 helpers, lazily started

  const auto second = runner.run<std::uint64_t>(specs, executor);
  EXPECT_EQ(pool.threads_started(), threads_after_first);  // reused, not respawned
  EXPECT_EQ(first, second);
  EXPECT_EQ(pool.jobs_run(), 2u);
}

TEST(WorkerPoolTest, GrowsLazilyToTheWidestCampaign) {
  WorkerPool pool;
  EXPECT_EQ(pool.threads_started(), 0);  // nothing spawned until needed

  const auto specs = numbered_specs(16);
  const std::function<int(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return static_cast<int>(s.id); };

  for (const int workers : {2, 6, 4}) {
    RunnerOptions options;
    options.workers = workers;
    options.pool = &pool;
    CampaignRunner{options}.run<int>(specs, executor);
  }
  EXPECT_EQ(pool.threads_started(), 5);  // widest campaign needed 5 helpers
  EXPECT_EQ(pool.jobs_run(), 3u);
}

TEST(WorkerPoolTest, SharedPoolServesMixedLayersDeterministically) {
  // Two different campaigns back to back on the process-wide pool must be
  // unaffected by the pool being warm.
  const auto specs = numbered_specs(24);
  const std::function<std::uint64_t(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return s.seed * 7; };
  const auto cold = runner_with(4).run<std::uint64_t>(specs, executor);
  const auto warm = runner_with(4).run<std::uint64_t>(specs, executor);
  EXPECT_EQ(cold, warm);
  EXPECT_GE(WorkerPool::shared().threads_started(), 3);
}

// --------------------------------------------------------- spec streams ----

std::string envelope(const ScenarioSpec& spec) {
  return lazyeye::str_format(
      "%llu|%llu|%d|%d|%s|%s|%s",
      static_cast<unsigned long long>(spec.id),
      static_cast<unsigned long long>(spec.seed), spec.repetition,
      spec.grid_index, spec.label.c_str(), spec.client.c_str(),
      case_name(spec.payload));
}

TEST(SpecStreamTest, ViewAndOwningAdaptersMatchTheVector) {
  auto specs = numbered_specs(9);
  for (auto& spec : specs) spec.label = "x" + std::to_string(spec.id);
  const SpecStream view = SpecStream::view(specs);
  ASSERT_EQ(view.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(envelope(view.at(i)), envelope(specs[i]));
  }
  const SpecStream owned = SpecStream::of(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(envelope(owned.at(i)), envelope(specs[i]));
  }
}

TEST(SpecStreamTest, TestbedSweepStreamReservesItsCounterRange) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const testbed::SweepSpec sweep{ms(0), ms(200), ms(50)};

  testbed::LocalTestbed bed;
  const std::uint64_t before = bed.cad_spec(profile, ms(0)).seed;
  const SpecStream stream = bed.cad_sweep_stream(profile, sweep, 3);
  ASSERT_EQ(stream.size(), 15u);  // 5 delays x 3 reps
  EXPECT_EQ(stream.at(0).seed, before + 1);
  EXPECT_EQ(stream.at(14).seed, before + 15);
  // The next one-off spec continues after the whole reserved range.
  EXPECT_EQ(bed.cad_spec(profile, ms(0)).seed, before + 16);
}

TEST(SpecStreamTest, StreamingRunMatchesVectorRunAtEveryWorkerCount) {
  // The lazy path through run_streaming(SpecStream, ...) must deliver the
  // same outcomes in the same order as the materialised path.
  const auto specs = numbered_specs(30);
  const std::function<std::uint64_t(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return s.seed * 13 + s.id; };

  std::vector<std::uint64_t> from_vector;
  CallbackSink<std::uint64_t> vector_sink{
      [&from_vector](const ScenarioSpec&, std::uint64_t v) {
        from_vector.push_back(v);
      }};
  runner_with(1).run_streaming<std::uint64_t>(specs, executor, vector_sink);

  for (const int workers : {1, 4, 8}) {
    const SpecStream stream{specs.size(), [](std::size_t i) {
                              ScenarioSpec spec;
                              spec.id = i;
                              spec.seed = 100 + i;
                              return spec;
                            }};
    std::vector<std::uint64_t> from_stream;
    CallbackSink<std::uint64_t> stream_sink{
        [&from_stream](const ScenarioSpec&, std::uint64_t v) {
          from_stream.push_back(v);
        }};
    runner_with(workers).run_streaming<std::uint64_t>(stream, executor,
                                                      stream_sink);
    EXPECT_EQ(from_stream, from_vector) << "workers=" << workers;
  }
}

TEST(ScenarioSpecTest, DerivedStreamsAreStableAndDistinct) {
  ScenarioSpec a;
  a.seed = 42;
  ScenarioSpec b = a;
  EXPECT_EQ(a.world_seed(), b.world_seed());
  EXPECT_EQ(a.client_seed(), b.client_seed());
  EXPECT_NE(a.world_seed(), a.client_seed());
  b.seed = 43;
  EXPECT_NE(a.world_seed(), b.world_seed());
}

// --------------------------------------------------------------- sinks ----

TEST(ResultSinkTest, StreamingDeliveryIsInSpecOrderWithBeginAndEnd) {
  const auto specs = numbered_specs(40);
  std::vector<std::uint64_t> delivered;
  int begins = 0;
  int ends = 0;
  std::size_t announced = 0;

  struct OrderSink final : ResultSink<std::uint64_t> {
    std::vector<std::uint64_t>* delivered;
    int* begins;
    int* ends;
    std::size_t* announced;
    void begin(std::size_t n) override {
      ++*begins;
      *announced = n;
    }
    void cell(const ScenarioSpec& spec, std::uint64_t outcome) override {
      EXPECT_EQ(spec.id * 7, outcome);
      delivered->push_back(spec.id);
    }
    void end() override { ++*ends; }
  } sink;
  sink.delivered = &delivered;
  sink.begins = &begins;
  sink.ends = &ends;
  sink.announced = &announced;

  const std::function<std::uint64_t(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return s.id * 7; };
  runner_with(4).run_streaming<std::uint64_t>(specs, executor, sink);

  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(announced, 40u);
  ASSERT_EQ(delivered.size(), 40u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i);  // strictly spec order despite 4 workers
  }
}

TEST(ResultSinkTest, EndSkippedWhenAnExecutorThrows) {
  const auto specs = numbered_specs(16);
  bool ended = false;
  struct EndSink final : ResultSink<int> {
    bool* ended;
    void cell(const ScenarioSpec&, int) override {}
    void end() override { *ended = true; }
  } sink;
  sink.ended = &ended;
  const std::function<int(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) -> int {
    if (s.id == 3) throw std::runtime_error("boom");
    return 0;
  };
  EXPECT_THROW(runner_with(4).run_streaming<int>(specs, executor, sink),
               std::runtime_error);
  EXPECT_FALSE(ended);
}

TEST(ResultSinkTest, SinkExceptionStopsDeliveryAndPropagates) {
  const auto specs = numbered_specs(24);
  std::vector<std::uint64_t> delivered;
  CallbackSink<int> sink{[&](const ScenarioSpec& spec, int) {
    if (spec.id == 5) throw std::runtime_error("sink boom");
    delivered.push_back(spec.id);
  }};
  const std::function<int(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return static_cast<int>(s.id); };
  EXPECT_THROW(runner_with(4).run_streaming<int>(specs, executor, sink),
               std::runtime_error);
  // Cells before the failing one were delivered exactly once, in order;
  // nothing was re-delivered or delivered after the sink threw.
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(ResultSinkTest, StreamingAndCollectingSinksRenderIdenticalTables) {
  auto specs = numbered_specs(12);
  for (auto& spec : specs) {
    spec.label = lazyeye::str_format(
        "cell%llu", static_cast<unsigned long long>(spec.id));
  }
  const std::function<int(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return static_cast<int>(s.seed % 7); };
  const std::vector<TableColumn<int>> columns{
      {"Cell", TextTable::Align::kLeft,
       [](const ScenarioSpec& s, const int&) { return s.label; }},
      {"Value", TextTable::Align::kRight,
       [](const ScenarioSpec&, const int& v) { return std::to_string(v); }}};

  // Collecting path: materialise, then render.
  CollectingSink<int> collecting;
  runner_with(4).run_streaming<int>(specs, executor, collecting);
  const std::string collected_table =
      to_table<int>(collecting.result(), columns).render();

  // Streaming path: build the same table row by row as cells arrive.
  std::vector<std::string> headers;
  for (const auto& c : columns) headers.push_back(c.header);
  TextTable streamed{std::move(headers)};
  for (std::size_t c = 0; c < columns.size(); ++c) {
    streamed.set_align(c, columns[c].align);
  }
  CallbackSink<int> streaming{[&](const ScenarioSpec& spec, int outcome) {
    std::vector<std::string> row;
    for (const auto& c : columns) row.push_back(c.cell(spec, outcome));
    streamed.add_row(std::move(row));
  }};
  runner_with(4).run_streaming<int>(specs, executor, streaming);

  EXPECT_EQ(streamed.render(), collected_table);  // byte-identical
}

// ------------------------------------------------------------ registry ----

TEST(RegistryTest, DispatchesOnPayloadType) {
  Registry<int> registry;
  registry.add<CadCase>([](const ScenarioSpec&, const CadCase& c) {
    return static_cast<int>(to_ms(c.v6_delay));
  });
  registry.add<AddressSelectionCase>(
      [](const ScenarioSpec&, const AddressSelectionCase& c) {
        return 1000 + c.per_family;
      });
  EXPECT_TRUE(registry.has(CaseKind::kCad));
  EXPECT_TRUE(registry.has(CaseKind::kAddressSelection));
  EXPECT_FALSE(registry.has(CaseKind::kResolverCell));

  std::vector<ScenarioSpec> specs = numbered_specs(4);
  specs[0].payload = CadCase{ms(250)};
  specs[1].payload = AddressSelectionCase{10};
  specs[2].payload = CadCase{ms(50)};
  specs[3].payload = AddressSelectionCase{3};

  const auto result = registry.run_collect(runner_with(2), specs);
  ASSERT_EQ(result.size(), 4u);
  EXPECT_EQ(result.outcomes, (std::vector<int>{250, 1010, 50, 1003}));
}

TEST(RegistryTest, RejectsUnregisteredKindBeforeLaunchingThePool) {
  Registry<int> registry;
  registry.add<CadCase>([](const ScenarioSpec&, const CadCase&) { return 0; });

  std::vector<ScenarioSpec> specs = numbered_specs(2);
  specs[1].payload = ResolverCellCase{"Unbound", ms(0)};

  std::atomic<int> executed{0};
  Registry<int> counting;
  counting.add<CadCase>([&](const ScenarioSpec&, const CadCase&) {
    return executed.fetch_add(1);
  });
  CollectingSink<int> sink;
  EXPECT_THROW(counting.run(runner_with(2), specs, sink),
               std::invalid_argument);
  EXPECT_EQ(executed.load(), 0);  // validation failed fast, no cell ran

  EXPECT_THROW(registry.execute(specs[1]), std::invalid_argument);
}

// -------------------------------------------------------- determinism ----

std::string serialize(const testbed::RunRecord& r) {
  std::string out = r.client;
  out += lazyeye::str_format(
      "|%lld|%d|%d|%d|", static_cast<long long>(r.configured_delay.count()),
      r.repetition, r.fetch_ok ? 1 : 0,
      r.established_family ? static_cast<int>(*r.established_family) : -1);
  out += r.observed_cad ? std::to_string(r.observed_cad->count()) : "-";
  out += "|";
  out += r.observed_rd ? std::to_string(r.observed_rd->count()) : "-";
  out += lazyeye::str_format("|%d|%d|%d|", r.aaaa_query_first ? 1 : 0,
                             r.v6_addresses_used, r.v4_addresses_used);
  for (const auto family : r.attempt_sequence) {
    out += std::to_string(static_cast<int>(family));
  }
  out += "|" + std::to_string(r.completion_time.count());
  return out;
}

std::string serialize(const std::vector<testbed::RunRecord>& records) {
  std::string out;
  for (const auto& r : records) {
    out += serialize(r);
    out += "\n";
  }
  return out;
}

TEST(CampaignDeterminismTest, TestbedSweepIdenticalForOneAndFourWorkers) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const testbed::SweepSpec sweep{ms(0), ms(400), ms(50)};

  testbed::LocalTestbed bed;
  const auto specs =
      materialize(bed.cad_sweep_stream(profile, sweep, /*repetitions=*/2));
  ASSERT_EQ(specs.size(), 18u);  // 9 delays x 2 reps

  const auto serial = bed.run_campaign(profile, specs, runner_with(1));
  const auto parallel = bed.run_campaign(profile, specs, runner_with(4));
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(CampaignDeterminismTest, TestbedSweepIdenticalAtEightWorkersForEveryCap) {
  // Backpressure on a real measurement matrix: 8 workers with a reorder cap
  // of 1, 4, and unbounded all reproduce the serial records byte-for-byte.
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const testbed::SweepSpec sweep{ms(0), ms(400), ms(100)};

  testbed::LocalTestbed bed;
  const auto specs =
      materialize(bed.cad_sweep_stream(profile, sweep, /*repetitions=*/2));
  const auto serial = bed.run_campaign(profile, specs, runner_with(1));
  for (const std::size_t cap : {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
    RunnerOptions options;
    options.workers = 8;
    options.max_reorder_ahead = cap;
    const auto parallel =
        bed.run_campaign(profile, specs, CampaignRunner{options});
    EXPECT_EQ(serialize(serial), serialize(parallel)) << "cap=" << cap;
  }
}

TEST(CampaignDeterminismTest, SweepCadMatchesSerialRunCadCaseSequence) {
  // The sharded sweep must reproduce the exact records the legacy serial
  // entry point produces from the same counter state.
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const testbed::SweepSpec sweep{ms(0), ms(300), ms(100)};

  testbed::LocalTestbed serial_bed;
  std::vector<testbed::RunRecord> serial;
  for (const SimTime delay : sweep.values()) {
    serial.push_back(serial_bed.run_cad_case(profile, delay, 0));
  }

  testbed::LocalTestbed campaign_bed;
  const auto sharded = campaign_bed.sweep_cad(profile, sweep, 1, 4);
  EXPECT_EQ(serialize(serial), serialize(sharded));
}

TEST(CampaignDeterminismTest, MultiClientBatchMatchesPerClientSweeps) {
  // One campaign batching two client profiles must reproduce, per client,
  // the records of consecutive single-client sweeps on one testbed.
  const std::vector<clients::ClientProfile> profiles{
      clients::chromium_profile("Chrome", "130.0", "10-2024"),
      clients::firefox_profile("132.0", "10-2024"),
  };
  const testbed::SweepSpec sweep{ms(0), ms(300), ms(150)};

  testbed::LocalTestbed serial_bed;
  std::vector<testbed::RunRecord> serial;
  for (const auto& profile : profiles) {
    for (const auto& rec : serial_bed.run_campaign(
             profile, materialize(serial_bed.cad_sweep_stream(profile, sweep)),
             runner_with(1))) {
      serial.push_back(rec);
    }
  }

  testbed::LocalTestbed batch_bed;
  const auto specs =
      materialize(batch_bed.multi_client_cad_stream(profiles, sweep));
  ASSERT_EQ(specs.size(), serial.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].id, i);  // dense ids across the joint matrix
  }

  Registry<testbed::RunRecord> registry;
  testbed::register_executors(registry, batch_bed, profiles);
  const auto batched = registry.run_collect(runner_with(4), specs);
  EXPECT_EQ(serialize(serial), serialize(batched.outcomes));
}

std::string serialize(const resolverlab::RunObservation& run) {
  return lazyeye::str_format(
      "%lld|%d|%d|%lld|%d|%d|%d|%d|%d|%d|%d|%d\n",
      static_cast<long long>(run.configured_delay.count()), run.repetition,
      run.resolved ? 1 : 0, static_cast<long long>(run.completed.count()),
      run.v6_main_queries, run.v4_main_queries, run.first_query_v6 ? 1 : 0,
      run.answer_via_v6 ? 1 : 0, run.aaaa_ns_seen ? 1 : 0,
      run.a_ns_seen ? 1 : 0, run.aaaa_before_a ? 1 : 0,
      run.ns_queries_parallel ? 1 : 0);
}

std::string serialize(const resolverlab::ServiceMetrics& m) {
  std::string out = m.service;
  out += lazyeye::str_format("|%d|%d|%.9f|", static_cast<int>(m.aaaa_order),
                             m.aaaa_order_known ? 1 : 0, m.ipv6_share);
  out += m.max_ipv6_delay ? std::to_string(m.max_ipv6_delay->count()) : "-";
  out += lazyeye::str_format("|%d|%d\n", m.max_ipv6_packets,
                             m.delay_unmeasurable ? 1 : 0);
  for (const auto& run : m.runs) out += serialize(run);
  return out;
}

TEST(CampaignDeterminismTest, ResolverLabIdenticalForOneAndFourWorkers) {
  const auto service = resolvers::find_service_profile("Unbound");
  ASSERT_TRUE(service);
  resolverlab::LabConfig config;
  config.delay_grid = {ms(0), ms(199), ms(375), ms(799)};
  config.repetitions = 6;
  config.seed = 31;

  config.workers = 1;
  const auto serial = resolverlab::measure_service(*service, config);
  config.workers = 4;
  const auto parallel = resolverlab::measure_service(*service, config);
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(CampaignDeterminismTest, CrossServiceCampaignMatchesSoloCampaigns) {
  // All Table 3 rows in one pool: the joint matrix must reproduce every
  // solo campaign's row byte-for-byte, at any worker count.
  const auto unbound = resolvers::find_service_profile("Unbound");
  const auto bind = resolvers::find_service_profile("BIND");
  ASSERT_TRUE(unbound);
  ASSERT_TRUE(bind);
  const std::vector<resolvers::ServiceProfile> services{*unbound, *bind};

  resolverlab::LabConfig config;
  config.delay_grid = {ms(0), ms(199), ms(799)};
  config.repetitions = 4;
  config.seed = 77;

  config.workers = 1;
  std::string solo;
  for (const auto& service : services) {
    solo += serialize(resolverlab::measure_service(service, config));
  }

  config.workers = 4;
  std::string joint;
  for (const auto& row : resolverlab::measure_services(services, config)) {
    joint += serialize(row);
  }
  EXPECT_EQ(solo, joint);
}

TEST(CampaignDeterminismTest, MixedKindMatrixIdenticalForOneAndFourWorkers) {
  // One CampaignRunner pool executing testbed CAD cells for two client
  // profiles *and* resolver-lab cells for two services, via one registry —
  // the mixed-kind matrix the v1 per-layer run loops could not express.
  using MixedOutcome =
      std::variant<testbed::RunRecord, resolverlab::RunObservation>;

  const std::vector<clients::ClientProfile> profiles{
      clients::chromium_profile("Chrome", "130.0", "10-2024"),
      clients::curl_profile(),
  };
  const auto unbound = resolvers::find_service_profile("Unbound");
  const auto bind = resolvers::find_service_profile("BIND");
  ASSERT_TRUE(unbound);
  ASSERT_TRUE(bind);
  const std::vector<resolvers::ServiceProfile> services{*unbound, *bind};

  resolverlab::LabConfig lab_config;
  lab_config.delay_grid = {ms(0), ms(375)};
  lab_config.repetitions = 2;
  lab_config.seed = 9;

  auto run_matrix = [&](int workers) {
    testbed::LocalTestbed bed;
    std::vector<ScenarioSpec> specs = materialize(bed.multi_client_cad_stream(
        profiles, testbed::SweepSpec{ms(0), ms(300), ms(150)}));
    const SpecStream lab =
        resolverlab::cross_service_cell_spec_stream(services, lab_config);
    for (ScenarioSpec& spec : materialize(lab)) {
      specs.push_back(std::move(spec));
    }
    for (std::size_t i = 0; i < specs.size(); ++i) specs[i].id = i;

    Registry<MixedOutcome> registry;
    testbed::register_executors(registry, bed, profiles);
    resolverlab::register_executor(registry, services);

    std::string bytes;
    CallbackSink<MixedOutcome> sink{
        [&bytes](const ScenarioSpec& spec, MixedOutcome outcome) {
          bytes += spec.label;
          bytes += ':';
          std::visit([&bytes](const auto& o) { bytes += serialize(o); },
                     outcome);
          bytes += '\n';
        }};
    registry.run(runner_with(workers), specs, sink);
    return bytes;
  };

  const std::string serial = run_matrix(1);
  const std::string parallel = run_matrix(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

std::string serialize(const webtool::WebToolReport& r) {
  std::string out = r.client + "|" + r.user_agent;
  out += lazyeye::str_format("|%d|%d|", r.inconsistent_repetitions,
                             r.total_repetitions);
  out += r.interval_low ? std::to_string(r.interval_low->count()) : "-";
  out += "|";
  out += r.interval_high ? std::to_string(r.interval_high->count()) : "-";
  out += "\n";
  for (const auto& obs : r.per_delay) {
    out += lazyeye::str_format("%lld|%d|%d|%d\n",
                               static_cast<long long>(obs.delay.count()),
                               obs.v6_used, obs.v4_used, obs.failures);
  }
  return out;
}

TEST(CampaignDeterminismTest, WebToolIdenticalForOneAndFourWorkers) {
  webtool::WebToolConfig config = webtool::WebToolConfig::paper_default();
  config.repetitions = 4;
  config.seed = 5;

  config.workers = 1;
  const auto serial = webtool::WebTool{config}.run_cad_test(
      clients::safari_profile("17.6"));
  config.workers = 4;
  const auto parallel = webtool::WebTool{config}.run_cad_test(
      clients::safari_profile("17.6"));
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(CampaignDeterminismTest, ResolverCellSpecsUseTheSerialSeedSequence) {
  const auto service = resolvers::find_service_profile("BIND");
  ASSERT_TRUE(service);
  resolverlab::LabConfig config;
  config.delay_grid = {ms(0), ms(100)};
  config.repetitions = 3;
  config.seed = 1000;
  const auto specs =
      materialize(resolverlab::cell_spec_stream(*service, config));
  ASSERT_EQ(specs.size(), 6u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].seed, 1000 + i + 1);
    EXPECT_EQ(specs[i].id, i);
    ASSERT_NE(specs[i].get_if<ResolverCellCase>(), nullptr);
    EXPECT_EQ(specs[i].get_if<ResolverCellCase>()->service, "BIND");
  }
  EXPECT_EQ(specs[0].get_if<ResolverCellCase>()->v6_delay, ms(0));
  EXPECT_EQ(specs[3].get_if<ResolverCellCase>()->v6_delay, ms(100));
  EXPECT_EQ(specs[4].repetition, 1);
}

// ------------------------------------------------------------- result ----

TEST(CampaignResultTest, TableRendersOneRowPerCell) {
  CampaignResult<int> result;
  result.specs = numbered_specs(3);
  for (auto& spec : result.specs) spec.label = "cell";
  result.outcomes = {7, 8, 9};
  const auto table = to_table<int>(
      result, {{"Cell", TextTable::Align::kLeft,
                [](const ScenarioSpec& s, const int&) { return s.label; }},
               {"Value", TextTable::Align::kRight,
                [](const ScenarioSpec&, const int& v) {
                  return std::to_string(v);
                }}});
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("Cell"), std::string::npos);
  EXPECT_NE(rendered.find("7"), std::string::npos);
  EXPECT_NE(rendered.find("9"), std::string::npos);
}

TEST(CampaignResultTest, GroupByKeepsFirstSeenOrder) {
  CampaignResult<int> result;
  result.specs = numbered_specs(6);
  for (std::size_t i = 0; i < 6; ++i) {
    result.specs[i].grid_index = static_cast<int>(i % 2);
  }
  result.outcomes = {0, 1, 2, 3, 4, 5};
  const auto groups = result.group_by<int>(
      [](const ScenarioSpec& s) { return s.grid_index; });
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first, 0);
  EXPECT_EQ(groups[0].second, (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(groups[1].second, (std::vector<std::size_t>{1, 3, 5}));
}

}  // namespace
}  // namespace lazyeye::campaign
