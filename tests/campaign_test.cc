// Campaign engine tests: typed payload dispatch through the
// executor registry, streaming sink delivery order, runner sharding edge
// semantics, and the core determinism contract — the same spec matrix with
// the same seeds produces byte-identical aggregated results for 1 worker
// and 4 workers, across all three measurement layers and for mixed-kind
// matrices that batch several layers into one worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <variant>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"
#include "campaign/worker_pool.h"
#include "clients/profiles.h"
#include "resolverlab/lab.h"
#include "testbed/testbed.h"
#include "util/mutex.h"
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

/// Runs every cell of `specs` through `registry` on `workers` threads and
/// returns the outcomes in spec order.
template <typename R>
std::vector<R> run_registered(const Registry<R>& registry,
                              const SpecStream& specs, int workers) {
  CollectingSink<R> sink;
  registry.run(runner_with(workers), specs, sink);
  return std::move(sink).take().outcomes;
}

/// Runs every cell of `specs` and returns the outcomes in spec order.
template <typename R>
std::vector<R> collect(const CampaignRunner& runner,
                       const std::vector<ScenarioSpec>& specs,
                       const std::function<R(const ScenarioSpec&)>& executor) {
  std::vector<R> outcomes;
  CallbackSink<R> sink{[&outcomes](const ScenarioSpec&, R outcome) {
    outcomes.push_back(std::move(outcome));
  }};
  runner.run_streaming<R>(SpecStream::view(specs), executor, sink);
  return outcomes;
}

// ------------------------------------------------------------- payload ----

TEST(CasePayloadTest, KindTracksAlternative) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.kind(), CaseKind::kCad);  // default payload
  spec.payload = ResolverCellCase{"Unbound", ms(100), 0};
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
}

// ------------------------------------------------------------- runner ----

TEST(CampaignRunnerTest, ResultsComeBackInSpecOrder) {
  const auto specs = numbered_specs(64);
  const auto results = collect<std::uint64_t>(
      runner_with(4), specs, [](const ScenarioSpec& s) { return s.seed * 3; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], (100 + i) * 3);
  }
}

TEST(CampaignRunnerTest, EveryCellRunsExactlyOnce) {
  const auto specs = numbered_specs(50);
  std::atomic<int> calls{0};
  collect<int>(runner_with(4), specs, [&](const ScenarioSpec& s) {
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

TEST(CampaignRunnerTest, ExecutorExceptionPropagates) {
  const auto specs = numbered_specs(16);
  EXPECT_THROW(
      collect<int>(runner_with(4), specs,
                   [](const ScenarioSpec& s) {
                     if (s.id == 7) throw std::runtime_error("cell 7 boom");
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
    collect<int>(runner_with(4), specs, [](const ScenarioSpec& s) -> int {
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

// --------------------------------------------------------- worker pool ----

TEST(WorkerPoolTest, NestedCampaignOnTheSamePoolDoesNotDeadlock) {
  // An executor that itself runs a multi-worker campaign re-enters the
  // shared pool's run_job from inside a job body; the pool must detect this
  // and run the inner campaign on transient threads instead of queueing
  // behind the (still running) outer campaign. The first three outer cells
  // wait for each other, so each of the three participants — the calling
  // thread and two pool threads — starts an inner campaign.
  constexpr int kOuterWorkers = 3;
  std::atomic<int> entered{0};
  util::Mutex ids_mutex;
  std::set<std::thread::id> outer_threads;

  const auto outer_totals = collect<std::uint64_t>(
      runner_with(kOuterWorkers), numbered_specs(6),
      [&](const ScenarioSpec& outer_spec) {
        entered.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (entered.load() < kOuterWorkers &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        {
          util::MutexLock lock{ids_mutex};
          outer_threads.insert(std::this_thread::get_id());
        }
        const auto inner = collect<std::uint64_t>(
            runner_with(2), numbered_specs(8),
            [](const ScenarioSpec& s) { return s.seed; });
        std::uint64_t total = outer_spec.seed;
        for (const std::uint64_t v : inner) total += v;
        return total;
      });

  const auto serial_inner =
      collect<std::uint64_t>(runner_with(1), numbered_specs(8),
                             [](const ScenarioSpec& s) { return s.seed; });
  std::uint64_t inner_sum = 0;
  for (const std::uint64_t v : serial_inner) inner_sum += v;
  for (std::size_t i = 0; i < outer_totals.size(); ++i) {
    EXPECT_EQ(outer_totals[i], numbered_specs(6)[i].seed + inner_sum);
  }
  EXPECT_EQ(outer_threads.size(), static_cast<std::size_t>(kOuterWorkers));
  EXPECT_EQ(outer_threads.count(std::this_thread::get_id()), 1u);
}

TEST(WorkerPoolTest, ThreadsPersistAcrossCampaigns) {
  WorkerPool pool;
  std::atomic<int> participants{0};
  const std::function<void()> body = [&participants] {
    participants.fetch_add(1);
  };

  pool.run_job(3, body);
  const int threads_after_first = pool.threads_started();
  EXPECT_EQ(threads_after_first, 3);  // one per helper, lazily started
  EXPECT_EQ(participants.load(), 4);  // helpers plus the calling thread

  pool.run_job(3, body);
  EXPECT_EQ(pool.threads_started(), threads_after_first);  // reused, not respawned
  EXPECT_EQ(participants.load(), 8);
  EXPECT_EQ(pool.jobs_run(), 2u);
}

TEST(WorkerPoolTest, GrowsLazilyToTheWidestCampaign) {
  WorkerPool pool;
  EXPECT_EQ(pool.threads_started(), 0);  // nothing spawned until needed

  std::atomic<int> participants{0};
  const std::function<void()> body = [&participants] {
    participants.fetch_add(1);
  };
  for (const int helpers : {1, 5, 3}) pool.run_job(helpers, body);
  EXPECT_EQ(pool.threads_started(), 5);  // widest job needed 5 helpers
  EXPECT_EQ(participants.load(), 2 + 6 + 4);
  EXPECT_EQ(pool.jobs_run(), 3u);
}

TEST(WorkerPoolTest, SharedPoolServesMixedLayersDeterministically) {
  // Two different campaigns back to back on the process-wide pool must be
  // unaffected by the pool being warm.
  const auto specs = numbered_specs(24);
  const std::function<std::uint64_t(const ScenarioSpec&)> executor =
      [](const ScenarioSpec& s) { return s.seed * 7; };
  const auto cold = collect<std::uint64_t>(runner_with(4), specs, executor);
  const auto warm = collect<std::uint64_t>(runner_with(4), specs, executor);
  EXPECT_EQ(cold, warm);
  EXPECT_GE(WorkerPool::shared().threads_started(), 3);
}

// --------------------------------------------------------- spec streams ----

std::string envelope(const ScenarioSpec& spec) {
  return lazyeye::str_format(
      "%llu|%llu|%d|%s|%s",
      static_cast<unsigned long long>(spec.id),
      static_cast<unsigned long long>(spec.seed), spec.repetition,
      spec.client.c_str(), case_name(spec.payload));
}

TEST(SpecStreamTest, ViewAndOwningAdaptersMatchTheVector) {
  auto specs = numbered_specs(9);
  for (auto& spec : specs) spec.client = lazyeye::str_cat('x', spec.id);
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
  const SpecStream stream = bed.multi_client_cad_stream({profile}, sweep, 3);
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
  runner_with(1).run_streaming<std::uint64_t>(SpecStream::view(specs),
                                              executor, vector_sink);

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
  runner_with(4).run_streaming<std::uint64_t>(SpecStream::view(specs),
                                              executor, sink);

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
  EXPECT_THROW(runner_with(4).run_streaming<int>(SpecStream::view(specs),
                                                 executor, sink),
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
  EXPECT_THROW(runner_with(4).run_streaming<int>(SpecStream::view(specs),
                                                 executor, sink),
               std::runtime_error);
  // Cells before the failing one were delivered exactly once, in order;
  // nothing was re-delivered or delivered after the sink threw.
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
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

  CollectingSink<int> sink;
  registry.run(runner_with(2), specs, sink);
  const auto& result = sink.result();
  ASSERT_EQ(result.specs.size(), 4u);
  EXPECT_EQ(result.outcomes, (std::vector<int>{250, 1010, 50, 1003}));
}

TEST(RegistryTest, RejectsUnregisteredKindBeforeLaunchingThePool) {
  Registry<int> registry;
  registry.add<CadCase>([](const ScenarioSpec&, const CadCase&) { return 0; });

  std::vector<ScenarioSpec> specs = numbered_specs(2);
  specs[1].payload = ResolverCellCase{"Unbound", ms(0), 0};

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

std::vector<testbed::RunRecord> run_cells(
    const testbed::LocalTestbed& bed, const clients::ClientProfile& profile,
    const std::vector<ScenarioSpec>& specs, const CampaignRunner& runner) {
  return collect<testbed::RunRecord>(
      runner, specs,
      [&](const ScenarioSpec& spec) { return bed.run_spec(profile, spec); });
}

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
      materialize(bed.multi_client_cad_stream({profile}, sweep,
                                              /*repetitions=*/2));
  ASSERT_EQ(specs.size(), 18u);  // 9 delays x 2 reps

  const auto serial = run_cells(bed, profile, specs, runner_with(1));
  const auto parallel = run_cells(bed, profile, specs, runner_with(4));
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(CampaignDeterminismTest, TestbedSweepIdenticalAtEightWorkers) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const testbed::SweepSpec sweep{ms(0), ms(400), ms(100)};

  testbed::LocalTestbed bed;
  const auto specs =
      materialize(bed.multi_client_cad_stream({profile}, sweep,
                                              /*repetitions=*/2));
  const auto serial = run_cells(bed, profile, specs, runner_with(1));
  const auto parallel = run_cells(bed, profile, specs, runner_with(8));
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(CampaignDeterminismTest, ShardedSweepMatchesSerialRunCadCaseSequence) {
  // The sharded sweep must reproduce the exact records the serial entry
  // point produces from the same counter state.
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const testbed::SweepSpec sweep{ms(0), ms(300), ms(100)};

  testbed::LocalTestbed serial_bed;
  std::vector<testbed::RunRecord> serial;
  for (const SimTime delay : sweep.values()) {
    serial.push_back(serial_bed.run_cad_case(profile, delay, 0));
  }

  testbed::LocalTestbed campaign_bed;
  Registry<testbed::RunRecord> registry;
  testbed::register_executors(registry, campaign_bed, {profile});
  const auto sharded = run_registered(
      registry, campaign_bed.multi_client_cad_stream({profile}, sweep), 4);
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
    for (const auto& rec : run_cells(
             serial_bed, profile,
             materialize(serial_bed.multi_client_cad_stream({profile}, sweep)),
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
  CollectingSink<testbed::RunRecord> batched;
  registry.run(runner_with(4), specs, batched);
  EXPECT_EQ(serialize(serial), serialize(batched.result().outcomes));
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

  Registry<resolverlab::RunObservation> registry;
  resolverlab::register_executor(registry, {*service});
  const SpecStream specs =
      resolverlab::cross_service_cell_spec_stream({*service}, config);
  const auto row = [&](int workers) {
    return serialize(resolverlab::aggregate_service(
        *service, run_registered(registry, specs, workers)));
  };
  const std::string serial = row(1);
  EXPECT_EQ(serial, row(4));
  // The registry path is the path measure_services runs.
  EXPECT_EQ(serial, serialize(
                        resolverlab::measure_services({*service}, config)
                            .front()));
}

TEST(CampaignDeterminismTest, CrossServiceCampaignMatchesSoloCampaigns) {
  // All Table 3 rows in one pool: the joint matrix must reproduce every
  // solo campaign's row byte-for-byte.
  const auto unbound = resolvers::find_service_profile("Unbound");
  const auto bind = resolvers::find_service_profile("BIND");
  ASSERT_TRUE(unbound);
  ASSERT_TRUE(bind);
  const std::vector<resolvers::ServiceProfile> services{*unbound, *bind};

  resolverlab::LabConfig config;
  config.delay_grid = {ms(0), ms(199), ms(799)};
  config.repetitions = 4;
  config.seed = 77;

  std::string solo;
  for (const auto& service : services) {
    solo += serialize(resolverlab::measure_services({service}, config).front());
  }

  std::string joint;
  for (const auto& row : resolverlab::measure_services(services, config)) {
    joint += serialize(row);
  }
  EXPECT_EQ(solo, joint);
}

TEST(CampaignDeterminismTest, MixedKindMatrixIdenticalForOneAndFourWorkers) {
  // One CampaignRunner pool executing testbed CAD cells for two client
  // profiles *and* resolver-lab cells for two services, via one registry.
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
          bytes += std::to_string(spec.id);
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

std::string serialize(const webtool::RepetitionOutcome& rep) {
  std::string out = rep.inconsistent ? "inconsistent|" : "consistent|";
  for (const auto& family : rep.families) {
    out += family ? std::to_string(static_cast<int>(*family)) : "-";
  }
  out += "\n";
  return out;
}

TEST(CampaignDeterminismTest, WebToolIdenticalForOneAndFourWorkers) {
  webtool::WebToolConfig config = webtool::WebToolConfig::paper_default();
  config.repetitions = 4;
  config.seed = 5;
  const webtool::WebTool tool{config};
  const auto safari = clients::safari_profile("17.6");

  Registry<webtool::RepetitionOutcome> registry;
  webtool::register_executor(registry, tool, {safari});
  const SpecStream specs =
      tool.campaign_spec_stream(safari, false, dns::RrType::kAaaa);
  const auto repetitions = [&](int workers) {
    std::string out;
    for (const auto& rep : run_registered(registry, specs, workers)) {
      out += serialize(rep);
    }
    return out;
  };
  const std::string serial = repetitions(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, repetitions(4));
}

TEST(CampaignDeterminismTest, ResolverCellSpecsUseTheSerialSeedSequence) {
  const auto service = resolvers::find_service_profile("BIND");
  ASSERT_TRUE(service);
  resolverlab::LabConfig config;
  config.delay_grid = {ms(0), ms(100)};
  config.repetitions = 3;
  config.seed = 1000;
  const auto specs =
      materialize(resolverlab::cross_service_cell_spec_stream({*service},
                                                              config));
  ASSERT_EQ(specs.size(), 6u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].seed, 1000 + i + 1);
    EXPECT_EQ(specs[i].id, i);
    ASSERT_NE(specs[i].get_if<ResolverCellCase>(), nullptr);
    EXPECT_EQ(specs[i].get_if<ResolverCellCase>()->service, "BIND");
    EXPECT_EQ(specs[i].get_if<ResolverCellCase>()->delay_index,
              static_cast<int>(i / 3));
  }
  EXPECT_EQ(specs[0].get_if<ResolverCellCase>()->v6_delay, ms(0));
  EXPECT_EQ(specs[3].get_if<ResolverCellCase>()->v6_delay, ms(100));
  EXPECT_EQ(specs[4].repetition, 1);
}

}  // namespace
}  // namespace lazyeye::campaign
