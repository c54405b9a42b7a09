// SketchSink determinism and equivalence tests.
//
// The streaming-sketch sinks exist so huge campaigns can fold CDF-style
// summaries in O(1) memory — but only if the fold is deterministic. The
// runner delivers cells in spec order at every worker count (sink.h
// contract), so the complete sketch state (count/sum/min/max plus all P²
// marker state) must be BIT-identical for 1, 2, 4 and 8 workers; the
// fingerprint strings make that comparison exact. A second set of checks
// pins the sketch to ground truth computed from a CollectingSink pass over
// the same stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "campaign/sketch.h"

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

// Deterministic, spread-out scalar per cell (a splitmix64 step mapped into
// [0, 1000)): a stand-in for a per-cell measurement like completion time.
double cell_value(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z % 1'000'000) / 1000.0;
}

// The executor sleeps nothing and allocates nothing interesting — the
// determinism risk lives entirely in delivery order, which is the point.
std::function<double(const ScenarioSpec&)> value_executor() {
  return [](const ScenarioSpec& spec) { return cell_value(spec.seed); };
}

SketchSink<double> make_sink() {
  SketchSink<double> sink;
  sink.add_metric("value", [](const ScenarioSpec&, const double& v) {
    return std::optional<double>{v};
  });
  // A sparse metric: only every third cell reports, so skip handling is
  // exercised by the same matrix.
  sink.add_metric("sparse", [](const ScenarioSpec& spec, const double& v)
                      -> std::optional<double> {
    if (spec.id % 3 != 0) return std::nullopt;
    return v * 2.0;
  });
  return sink;
}

TEST(SketchSinkTest, BitIdenticalStateAcrossWorkerCounts) {
  const auto specs = numbered_specs(257);  // odd size: uneven worker shards
  const auto executor = value_executor();

  std::string serial_fingerprint;
  for (const int workers : {1, 2, 4, 8}) {
    RunnerOptions options;
    options.workers = workers;
    const CampaignRunner runner{options};

    SketchSink<double> sink = make_sink();
    runner.run_streaming<double>(SpecStream::view(specs), executor, sink);

    EXPECT_EQ(sink.cells_seen(), specs.size());
    const std::string fingerprint = sink.fingerprint();
    if (workers == 1) {
      serial_fingerprint = fingerprint;
      ASSERT_FALSE(serial_fingerprint.empty());
    } else {
      EXPECT_EQ(fingerprint, serial_fingerprint)
          << "sketch state diverged at " << workers << " workers";
    }
  }
}

TEST(SketchSinkTest, MatchesCollectingSinkGroundTruth) {
  const auto specs = numbered_specs(100);
  const auto executor = value_executor();
  RunnerOptions options;
  options.workers = 4;
  const CampaignRunner runner{options};

  // One campaign pass feeds both sinks through a tee.
  CollectingSink<double> collected;
  SketchSink<double> sketched = make_sink();
  TeeSink<double> tee{collected, sketched};
  runner.run_streaming<double>(SpecStream::view(specs), executor, tee);

  const auto& outcomes = collected.result().outcomes;
  ASSERT_EQ(outcomes.size(), specs.size());

  // Fold the materialised outcomes in delivery order with the same
  // operations the sketch uses: count/sum/min/max must match exactly.
  std::uint64_t count = 0;
  double sum = 0.0, lo = 0.0, hi = 0.0;
  for (const double v : outcomes) {
    ++count;
    sum += v;
    if (count == 1 || v < lo) lo = v;
    if (count == 1 || v > hi) hi = v;
  }
  const MetricSketch* value = sketched.find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count(), count);
  EXPECT_EQ(value->sum(), sum);  // identical fold order => identical bits
  EXPECT_EQ(value->min(), lo);
  EXPECT_EQ(value->max(), hi);
  EXPECT_EQ(value->mean(), sum / static_cast<double>(count));

  // P² is an estimator, not exact — but on 100 spread-out samples the
  // median estimate must land inside the sample range and near the true
  // median (P² error on smooth data is small).
  std::vector<double> sorted{outcomes};
  std::sort(sorted.begin(), sorted.end());
  const double true_median = (sorted[49] + sorted[50]) / 2.0;
  const double spread = sorted.back() - sorted.front();
  EXPECT_GE(value->p50(), sorted.front());
  EXPECT_LE(value->p50(), sorted.back());
  EXPECT_NEAR(value->p50(), true_median, spread * 0.15);
  EXPECT_GE(value->p99(), value->p50());

  // The sparse metric saw exactly the cells whose extractor engaged.
  const MetricSketch* sparse = sketched.find("sparse");
  ASSERT_NE(sparse, nullptr);
  std::uint64_t sparse_expected = 0;
  for (const auto& spec : specs) {
    if (spec.id % 3 == 0) ++sparse_expected;
  }
  EXPECT_EQ(sparse->count(), sparse_expected);

  EXPECT_EQ(sketched.find("missing"), nullptr);
}

TEST(SketchSinkTest, P2QuantileTracksExactQuantilesOnRamp) {
  // 1..10'000 in shuffled-ish (splitmix) order: exact quantiles are known.
  MetricSketch sketch;
  for (int i = 0; i < 10'000; ++i) {
    sketch.add(cell_value(static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(sketch.count(), 10'000u);
  // Values are ~uniform on [0, 1000): p50 ~ 500, p95 ~ 950, p99 ~ 990.
  EXPECT_NEAR(sketch.p50(), 500.0, 25.0);
  EXPECT_NEAR(sketch.p95(), 950.0, 25.0);
  EXPECT_NEAR(sketch.p99(), 990.0, 25.0);
  EXPECT_LT(sketch.min(), 10.0);
  EXPECT_GT(sketch.max(), 990.0);
}

TEST(SketchSinkTest, SmallCountsUseWarmupBuffer) {
  MetricSketch sketch;
  EXPECT_TRUE(std::isnan(sketch.p50()));
  sketch.add(3.0);
  EXPECT_EQ(sketch.p50(), 3.0);
  sketch.add(1.0);
  sketch.add(2.0);
  // Nearest-rank on {1, 2, 3}: median is 2.
  EXPECT_EQ(sketch.p50(), 2.0);
  EXPECT_EQ(sketch.min(), 1.0);
  EXPECT_EQ(sketch.max(), 3.0);
}

}  // namespace
}  // namespace lazyeye::campaign
