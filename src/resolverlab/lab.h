// Resolver measurement lab (paper §4.2, §5.3).
//
// Builds the delegation tree root -> lab -> <measurement zone> with a fresh
// network per run, unique zone apexes and NS names per delay configuration
// (cache-effect avoidance), traffic shaping on the authoritative server's
// IPv6 path, and evaluates resolvers *purely from the authoritative-side
// query log* — the resolver engine is a black box to the measurement.
//
// Campaign API v2: each (delay, repetition) cell is a ScenarioSpec carrying
// a ResolverCellCase payload that names the service, so cells of *different*
// services can share one worker pool — measure_services() runs every
// Table 3 row in a single campaign while keeping each service's serial seed
// sequence (per-service results are byte-identical to a solo campaign).
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/scenario.h"
#include "campaign/spec_stream.h"
#include "resolvers/service_profiles.h"
#include "util/time.h"

namespace lazyeye::resolverlab {

struct LabConfig {
  /// IPv6 delays applied at the measurement auth server (the sweep grid).
  std::vector<SimTime> delay_grid;
  /// Repetitions per delay (fresh zone + network each).
  int repetitions = 9;
  std::uint64_t seed = 42;
  /// Campaign worker threads (0 = one per hardware thread). Results are
  /// identical for any worker count.
  int workers = 0;

  static LabConfig paper_grid();
};

/// One resolution observed at the authoritative server.
struct RunObservation {
  SimTime configured_delay{0};
  int repetition = 0;
  bool resolved = false;
  SimTime completed{0};      // when the resolver delivered its answer
  int v6_main_queries = 0;   // main-qname queries over IPv6
  int v4_main_queries = 0;
  bool first_query_v6 = false;  // family of the first *sent* main query
  bool answer_via_v6 = false;  // the answer the resolver used came over v6
  bool aaaa_ns_seen = false;
  bool a_ns_seen = false;
  /// Auth-side ordering signals for the AAAA Query column.
  bool aaaa_before_a = false;
  bool aaaa_before_main = false;
  bool ns_queries_parallel = false;
};

/// Aggregate Table 3 row for one service.
struct ServiceMetrics {
  std::string service;
  resolvers::AaaaOrderClass aaaa_order =
      resolvers::AaaaOrderClass::kBeforeA;
  bool aaaa_order_known = false;
  double ipv6_share = 0.0;  // fraction of auth-directed packets over IPv6
  std::optional<SimTime> max_ipv6_delay;  // largest delay with majority-v6
  int max_ipv6_packets = 0;  // most IPv6 packets in a single resolution
  bool delay_unmeasurable = false;  // parallel NS queries (footnote 1)
  std::vector<RunObservation> runs;
};

/// Table 4 capability check: can the service resolve an IPv6-only
/// delegation at all?
bool check_ipv6_only_capability(const resolvers::ServiceProfile& service,
                                std::uint64_t seed = 7);

/// Enumerates the service's (delay × repetition) matrix as campaign cells,
/// generated per claimed cell. Each cell's seed is config.seed + flat_index
/// + 1 — the same sequence the original serial loop consumed, so
/// measurements are reproducible across versions and worker counts.
campaign::SpecStream cell_spec_stream(const resolvers::ServiceProfile& service,
                                      const LabConfig& config);

/// One joint matrix covering all `services` (service-major: service A's
/// full delay × repetition block, then B's, ...). Each service's block
/// keeps its own serial seed sequence, so per-service observations are
/// identical to a solo campaign; ids are dense across the joint matrix.
campaign::SpecStream cross_service_cell_spec_stream(
    const std::vector<resolvers::ServiceProfile>& services,
    const LabConfig& config);

/// Stateless executor for one (delay, repetition) cell: builds the
/// delegation tree in an isolated world seeded from the spec, resolves, and
/// reads the authoritative-side query log. Thread-safe across cells.
RunObservation run_cell(const resolvers::ServiceProfile& service,
                        const campaign::ScenarioSpec& spec);

/// Folds one service's observations (in matrix order) into its Table 3 row.
ServiceMetrics aggregate_service(const resolvers::ServiceProfile& service,
                                 std::vector<RunObservation> observations);

/// Runs the full campaign for one service (cells sharded across
/// config.workers threads).
ServiceMetrics measure_service(const resolvers::ServiceProfile& service,
                               const LabConfig& config);

/// Cross-service campaign: all services' matrices in ONE worker pool (the
/// ROADMAP's "all Table 3 rows in one pool"). Returns one metrics row per
/// service, in input order, byte-identical to measure_service() per
/// service at any worker count.
std::vector<ServiceMetrics> measure_services(
    const std::vector<resolvers::ServiceProfile>& services,
    const LabConfig& config);

/// Plugs the resolver-cell case into a campaign registry. Cells name their
/// service in the payload; it is resolved against `services` (copied into
/// the executor).
template <typename Outcome>
void register_executor(campaign::Registry<Outcome>& registry,
                       std::vector<resolvers::ServiceProfile> services) {
  auto pool = std::make_shared<const std::vector<resolvers::ServiceProfile>>(
      std::move(services));
  registry.template add<campaign::ResolverCellCase>(
      [pool](const campaign::ScenarioSpec& spec,
             const campaign::ResolverCellCase& cell) {
        return run_cell(
            campaign::find_registered(
                *pool, cell.service,
                [](const resolvers::ServiceProfile& s) { return s.service; },
                "resolverlab"),
            spec);
      });
}

}  // namespace lazyeye::resolverlab
