// Campaign scaling bench: runs the Figure 2 CAD sweep workload (one
// Chromium profile over the fine 0..400 ms / 5 ms grid, 2 repetitions =
// 162 isolated simnet worlds) through the CampaignRunner at 1, 2, 4, and 8
// workers — all on ONE persistent WorkerPool, so every count after the
// first reuses parked threads — and reports runs/sec plus speedup vs the
// serial baseline. A second section measures the EventLoop hot path:
// events/sec and a heap-allocations-per-event proxy (global operator new
// counting), which the InlineCallback small-buffer path should keep near 0.
//
// It also cross-checks the determinism contract on the way: every worker
// count must produce byte-identical records — and the streaming path
// must deliver cells in spec order (the serialised bytes double as the
// order check).
//
// Machine-readable output: writes BENCH_campaign_scaling.json (override
// with --json <path>) so CI can archive the perf trajectory.
//
// `--smoke` runs a drastically reduced grid at 1 and 2 workers — a CI-fast
// API regression check for the bench driver itself, not a measurement.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/sink.h"
#include "campaign/worker_pool.h"
#include "clients/profiles.h"
#include "simnet/event_loop.h"
#include "simnet/udp_echo.h"
#include "testbed/testbed.h"

using namespace lazyeye;

// ---- allocation counting (proxy for per-event heap traffic) ---------------
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

void serialize(const testbed::RunRecord& r, std::string& out) {
  out += r.client;
  out += '|';
  out += std::to_string(r.configured_delay.count());
  out += '|';
  out += r.established_family
             ? std::to_string(static_cast<int>(*r.established_family))
             : "-";
  out += '|';
  out += r.observed_cad ? std::to_string(r.observed_cad->count()) : "-";
  out += '|';
  out += std::to_string(r.completion_time.count());
  out += '\n';
}

struct WorkerPoint {
  int workers = 0;
  double wall_ms = 0.0;
  double runs_per_sec = 0.0;
  double cells_per_sec_per_core = 0.0;  // runs_per_sec / workers
  double speedup = 1.0;
  // Fault-isolation counters (runner.h RunStats): all zero on this clean
  // workload, surfaced so the perf archive records the health of every run.
  std::size_t cells_failed = 0;
  std::size_t cells_retried = 0;
  std::size_t cells_quarantined = 0;
};

struct CellCostPoint {
  std::uint64_t cells = 0;
  double cells_per_sec_per_core = 0.0;  // serial, so per-core by definition
  double allocs_per_cell = 0.0;         // setup+run+teardown, warm pool
};

struct EventLoopPoint {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
};

struct DataPathPoint {
  std::uint64_t packets = 0;        // delivered in the measured section
  double packets_per_sec = 0.0;
  std::uint64_t steady_allocs = 0;  // heap allocations in that section
  double allocs_per_packet = 0.0;
};

/// Steady-state per-packet data path: a UDP echo pair exchanging pooled
/// 64-byte payloads. After warm-up (pool blocks, flight slots, timer-heap
/// storage at their high-water marks) the measured section must perform ZERO
/// heap allocations — the CI smoke gate fails on any regression. The gate is
/// count-based, not timing-based, so it is deterministic on 1-core runners.
DataPathPoint measure_datapath(std::uint64_t packets) {
  simnet::Network net{1};
  simnet::UdpEchoHarness echo{net};

  echo.run_rounds(512);  // warm-up

  const std::uint64_t rounds = packets / 2;  // 2 deliveries per round trip
  const std::uint64_t alloc_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t delivered_before = net.stats().packets_delivered;
  const auto start = std::chrono::steady_clock::now();
  echo.run_rounds(rounds);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t alloc_after =
      g_allocations.load(std::memory_order_relaxed);

  DataPathPoint point;
  point.packets = net.stats().packets_delivered - delivered_before;
  const double seconds = std::chrono::duration<double>(elapsed).count();
  point.packets_per_sec =
      seconds > 0 ? static_cast<double>(point.packets) / seconds : 0.0;
  point.steady_allocs = alloc_after - alloc_before;
  point.allocs_per_packet =
      point.packets > 0 ? static_cast<double>(point.steady_allocs) /
                              static_cast<double>(point.packets)
                        : 0.0;
  return point;
}

/// Per-cell lifecycle cost on the small-cell CAD grid: build one world,
/// run one fetch, tear the world down — repeatedly, on one thread, after a
/// warm-up that fills the thread's scenario pool (arena chunks, buffer
/// pools, message pools at their high-water marks). Reports allocations
/// per cell (the count-based CI gate) and serial cells/sec, which on one
/// thread IS cells/sec-per-core.
CellCostPoint measure_cell_cost(testbed::LocalTestbed& bed,
                                const clients::ClientProfile& profile,
                                std::uint64_t cells) {
  constexpr std::uint64_t kWarmup = 16;
  for (std::uint64_t i = 0; i < kWarmup; ++i) {
    bed.run_cad_case(profile, ms(50), static_cast<int>(i));
  }

  const std::uint64_t alloc_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < cells; ++i) {
    bed.run_cad_case(profile, ms(50), static_cast<int>(kWarmup + i));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t alloc_after =
      g_allocations.load(std::memory_order_relaxed);

  CellCostPoint point;
  point.cells = cells;
  const double seconds = std::chrono::duration<double>(elapsed).count();
  point.cells_per_sec_per_core =
      seconds > 0 ? static_cast<double>(cells) / seconds : 0.0;
  point.allocs_per_cell =
      static_cast<double>(alloc_after - alloc_before) /
      static_cast<double>(cells);
  return point;
}

/// Schedule/run churn matching the simulation profile (timer chains: each
/// callback schedules a successor, like retransmit/HE-attempt timers).
EventLoopPoint measure_eventloop(std::uint64_t events) {
  simnet::EventLoop loop;
  struct Chain {
    simnet::EventLoop* loop;
    std::uint64_t* remaining;
    void operator()() const {
      if (--*remaining == 0) return;
      loop->schedule_after(ms(1), *this);
    }
  };
  // Seed 64 concurrent chains: a fuller timer heap than any cell holds.
  constexpr std::uint64_t chains = 64;
  std::uint64_t budgets[chains];
  const std::uint64_t spread = events / chains;
  for (std::uint64_t c = 0; c < chains; ++c) {
    budgets[c] = spread;
  }
  budgets[0] += events - spread * chains;

  const std::uint64_t alloc_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t c = 0; c < chains; ++c) {
    if (budgets[c] == 0) continue;
    loop.schedule_after(ms(c), Chain{&loop, &budgets[c]});
  }
  loop.run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t alloc_after =
      g_allocations.load(std::memory_order_relaxed);

  EventLoopPoint point;
  point.events = loop.processed();
  const double seconds = std::chrono::duration<double>(elapsed).count();
  point.events_per_sec = seconds > 0 ? point.events / seconds : 0.0;
  point.allocs_per_event =
      point.events > 0
          ? static_cast<double>(alloc_after - alloc_before) / point.events
          : 0.0;
  return point;
}

void write_json(const std::string& path, bool smoke, std::size_t cells,
                const std::vector<WorkerPoint>& points,
                const EventLoopPoint& ev, const DataPathPoint& dp,
                const CellCostPoint& cc, int pool_threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"campaign_scaling\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"cells\": %zu,\n", cells);
  std::fprintf(f, "  \"pool_threads_started\": %d,\n", pool_threads);
  std::fprintf(f, "  \"workers\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const WorkerPoint& p = points[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"wall_ms\": %.3f, "
                 "\"runs_per_sec\": %.3f, \"cells_per_sec_per_core\": %.3f, "
                 "\"speedup\": %.3f, \"cells_failed\": %zu, "
                 "\"cells_retried\": %zu, \"cells_quarantined\": %zu}%s\n",
                 p.workers, p.wall_ms, p.runs_per_sec,
                 p.cells_per_sec_per_core, p.speedup, p.cells_failed,
                 p.cells_retried, p.cells_quarantined,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"cell_cost\": {\"cells\": %llu, "
               "\"cells_per_sec_per_core\": %.1f, "
               "\"allocs_per_cell\": %.2f},\n",
               static_cast<unsigned long long>(cc.cells),
               cc.cells_per_sec_per_core, cc.allocs_per_cell);
  std::fprintf(f,
               "  \"eventloop\": {\"events\": %llu, \"events_per_sec\": %.1f, "
               "\"allocs_per_event\": %.4f},\n",
               static_cast<unsigned long long>(ev.events), ev.events_per_sec,
               ev.allocs_per_event);
  std::fprintf(f,
               "  \"datapath\": {\"packets\": %llu, "
               "\"packets_per_sec\": %.1f, \"steady_state_allocs\": %llu, "
               "\"allocs_per_packet\": %.6f}\n",
               static_cast<unsigned long long>(dp.packets),
               dp.packets_per_sec,
               static_cast<unsigned long long>(dp.steady_allocs),
               dp.allocs_per_packet);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nWrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_campaign_scaling.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    }
  }

  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const testbed::SweepSpec sweep =
      smoke ? testbed::SweepSpec{ms(0), ms(400), ms(100)}
            : testbed::SweepSpec::fine_cad();
  const int repetitions = smoke ? 1 : 2;
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  testbed::LocalTestbed bed;
  const campaign::SpecStream specs =
      bed.cad_sweep_stream(profile, sweep, repetitions);

  // The testbed's executors plug into a registry, and the bench
  // streams records through a callback sink (spec-order delivery), folding
  // them straight into the determinism fingerprint. Every worker count runs
  // on the same persistent pool — counts after the first reuse its threads.
  campaign::Registry<testbed::RunRecord> registry;
  testbed::register_executors(registry, bed, {profile});
  campaign::WorkerPool& pool = campaign::WorkerPool::shared();

  std::printf("Campaign scaling%s: figure2 CAD sweep workload, %zu cells "
              "(%zu delays x %d reps), hardware threads: %u\n\n",
              smoke ? " (smoke mode)" : "", specs.size(),
              sweep.values().size(), repetitions,
              std::thread::hardware_concurrency());
  std::printf("%8s %12s %12s %16s %10s %14s\n", "workers", "wall [ms]",
              "runs/sec", "cells/s/core", "speedup", "faults f/r/q");

  std::vector<WorkerPoint> points;
  double serial_seconds = 0.0;
  std::string serial_bytes;
  for (const int workers : worker_counts) {
    campaign::RunnerOptions options;
    options.workers = workers;
    options.pool = &pool;
    const campaign::CampaignRunner runner{options};

    std::string bytes;
    bytes.reserve(specs.size() * 48);
    campaign::CallbackSink<testbed::RunRecord> sink{
        [&bytes](const campaign::ScenarioSpec&, testbed::RunRecord record) {
          serialize(record, bytes);
        }};

    const auto start = std::chrono::steady_clock::now();
    registry.run(runner, specs, sink);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double seconds =
        std::chrono::duration<double>(elapsed).count();

    if (workers == 1) {
      serial_seconds = seconds;
      serial_bytes = bytes;
    } else if (bytes != serial_bytes) {
      std::printf("DETERMINISM VIOLATION at %d workers!\n", workers);
      return 1;
    }

    WorkerPoint point;
    point.workers = workers;
    point.wall_ms = seconds * 1e3;
    point.runs_per_sec = specs.size() / seconds;
    point.cells_per_sec_per_core = point.runs_per_sec / workers;
    point.speedup = serial_seconds / seconds;
    const campaign::CampaignRunner::RunStats stats = runner.last_run_stats();
    point.cells_failed = stats.cells_failed;
    point.cells_retried = stats.cells_retried;
    point.cells_quarantined = stats.cells_quarantined;
    points.push_back(point);
    std::printf("%8d %12.1f %12.1f %16.1f %9.2fx %6zu/%zu/%zu\n", workers,
                point.wall_ms, point.runs_per_sec,
                point.cells_per_sec_per_core, point.speedup,
                point.cells_failed, point.cells_retried,
                point.cells_quarantined);
  }

  std::printf("\nAll worker counts produced byte-identical records "
              "(pool threads started: %d, campaigns served: %llu).\n",
              pool.threads_started(),
              static_cast<unsigned long long>(pool.jobs_run()));

  const EventLoopPoint ev = measure_eventloop(smoke ? 200'000 : 2'000'000);
  std::printf("\nEventLoop: %llu events, %.0f events/sec, "
              "%.4f heap allocations/event (InlineCallback inline path)\n",
              static_cast<unsigned long long>(ev.events), ev.events_per_sec,
              ev.allocs_per_event);

  const DataPathPoint dp = measure_datapath(smoke ? 100'000 : 1'000'000);
  std::printf("\nData path: %llu UDP packets delivered, %.0f packets/sec, "
              "%llu steady-state heap allocations (%.6f per packet)\n",
              static_cast<unsigned long long>(dp.packets),
              dp.packets_per_sec,
              static_cast<unsigned long long>(dp.steady_allocs),
              dp.allocs_per_packet);

  const CellCostPoint cc = measure_cell_cost(bed, profile, smoke ? 64 : 256);
  std::printf("\nCell lifecycle: %llu warm cells, %.0f cells/sec/core, "
              "%.1f heap allocations per cell (arena + pooled worlds)\n",
              static_cast<unsigned long long>(cc.cells),
              cc.cells_per_sec_per_core, cc.allocs_per_cell);

  write_json(json_path, smoke, specs.size(), points, ev, dp, cc,
             pool.threads_started());

  // Deterministic smoke gate: the pooled per-packet path must not allocate
  // in steady state. Counting allocations (not timing) keeps this stable on
  // 1-core CI runners.
  if (dp.steady_allocs > 0) {
    std::fprintf(stderr,
                 "DATA-PATH ALLOCATION REGRESSION: %llu heap allocations "
                 "over %llu delivered packets (expected 0)\n",
                 static_cast<unsigned long long>(dp.steady_allocs),
                 static_cast<unsigned long long>(dp.packets));
    return 1;
  }

  // Per-cell budget: the arena/pool overhaul brought a warm small cell from
  // ~406 heap allocations down to ~80; the gate holds the 5x win. Count-
  // based, so 1-core runners and ASan builds gate identically.
  constexpr double kCellAllocBudget = 96.0;
  if (cc.allocs_per_cell > kCellAllocBudget) {
    std::fprintf(stderr,
                 "PER-CELL ALLOCATION REGRESSION: %.1f heap allocations per "
                 "warm cell (budget %.0f)\n",
                 cc.allocs_per_cell, kCellAllocBudget);
    return 1;
  }
  return 0;
}
