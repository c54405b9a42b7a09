// Campaign fast-path showcase: one persistent worker pool, three
// measurement layers, a lazy mixed-kind matrix, streaming delivery.
//
// Builds a single mixed-kind matrix — a multi-client testbed CAD batch
// (Chrome + Firefox + curl), a web-tool repetition, and resolver-lab cells
// for two Table 3 services — as a lazy SpecStream (no spec vector is ever
// materialised), registers each layer's executor in one campaign::Registry,
// and streams the cells through a ResultSink in spec order. Both campaigns
// below run on the process-wide WorkerPool, so the second one reuses the
// first one's parked threads. The same matrix is byte-identical at any
// worker count.
//
//   $ ./example_mixed_campaign
#include <cstdio>
#include <variant>
#include <vector>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"
#include "campaign/worker_pool.h"
#include "clients/profiles.h"
#include "resolverlab/lab.h"
#include "testbed/testbed.h"
#include "util/strings.h"
#include "webtool/webtool.h"

using namespace lazyeye;

using MixedOutcome = std::variant<testbed::RunRecord,
                                  webtool::RepetitionOutcome,
                                  resolverlab::RunObservation>;

int main() {
  // ---- Describe the matrix lazily ------------------------------------------
  const std::vector<clients::ClientProfile> clients_pool{
      clients::chromium_profile("Chrome", "130.0", "10-2024"),
      clients::firefox_profile("132.0", "10-2024"),
      clients::curl_profile(),
  };

  testbed::LocalTestbed bed;
  const campaign::SpecStream testbed_cells = bed.multi_client_cad_stream(
      clients_pool, testbed::SweepSpec{ms(0), ms(400), ms(200)});

  webtool::WebToolConfig web_config = webtool::WebToolConfig::paper_default();
  web_config.repetitions = 1;
  webtool::WebTool tool{web_config};
  const campaign::SpecStream web_cells = tool.campaign_spec_stream(
      clients_pool[0], /*rd_mode=*/false, dns::RrType::kAaaa);

  resolverlab::LabConfig lab_config;
  lab_config.delay_grid = {ms(0), ms(375)};
  lab_config.repetitions = 2;
  const auto unbound = resolvers::find_service_profile("Unbound");
  const auto bind = resolvers::find_service_profile("BIND");
  if (!unbound || !bind) {
    std::fprintf(stderr, "service profiles missing\n");
    return 1;
  }
  const std::vector<resolvers::ServiceProfile> services{*unbound, *bind};
  const campaign::SpecStream resolver_cells =
      resolverlab::cross_service_cell_spec_stream(services, lab_config);

  // Concatenate the three layer streams into one lazy joint matrix: cells
  // are generated only when a worker claims them, and ids are re-numbered
  // densely on the fly (ids double as result slots).
  const std::size_t n_testbed = testbed_cells.size();
  const std::size_t n_web = web_cells.size();
  const std::size_t total = n_testbed + n_web + resolver_cells.size();
  const campaign::SpecStream specs{
      total, [&](std::size_t i) {
        campaign::ScenarioSpec spec =
            i < n_testbed ? testbed_cells.at(i)
            : i < n_testbed + n_web
                ? web_cells.at(i - n_testbed)
                : resolver_cells.at(i - n_testbed - n_web);
        spec.id = i;
        return spec;
      }};

  // ---- Register executors, run once, stream results ------------------------
  campaign::Registry<MixedOutcome> registry;
  testbed::register_executors(registry, bed, clients_pool);
  webtool::register_executor(registry, tool, clients_pool);
  resolverlab::register_executor(registry, services);

  std::printf("Mixed-kind campaign: %zu lazily-generated cells (testbed CAD "
              "x %zu clients, webtool, resolver lab x %zu services) in one "
              "persistent pool\n\n",
              total, clients_pool.size(), services.size());
  std::printf("%-6s %-14s %-20s %s\n", "cell", "case", "client/service",
              "outcome");

  campaign::RunnerOptions options;
  options.workers = 4;  // explicit: pool path even on 1-core boxes
  campaign::CallbackSink<MixedOutcome> sink{[](const campaign::ScenarioSpec& spec,
                                               MixedOutcome outcome) {
    std::string summary = std::visit(
        [](const auto& o) -> std::string {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, testbed::RunRecord>) {
            return str_format(
                "established=%s cad=%s",
                o.established_family
                    ? (*o.established_family == simnet::Family::kIpv6 ? "v6"
                                                                      : "v4")
                    : "-",
                o.observed_cad ? format_duration(*o.observed_cad).c_str()
                               : "-");
          } else if constexpr (std::is_same_v<T, webtool::RepetitionOutcome>) {
            int v6 = 0;
            int v4 = 0;
            for (const auto& family : o.families) {
              if (!family) continue;
              (*family == simnet::Family::kIpv6 ? v6 : v4) += 1;
            }
            return str_format("buckets v6=%d v4=%d inconsistent=%s", v6, v4,
                              o.inconsistent ? "yes" : "no");
          } else {
            return str_format("resolved=%s first-query=%s v6-main=%d",
                              o.resolved ? "yes" : "no",
                              o.first_query_v6 ? "v6" : "v4",
                              o.v6_main_queries);
          }
        },
        outcome);
    // Resolver cells run a service's engine rather than a client.
    const auto* resolver = spec.get_if<campaign::ResolverCellCase>();
    std::printf("%-6llu %-14s %-20s %s\n",
                static_cast<unsigned long long>(spec.id),
                campaign::case_name(spec.payload),
                (resolver != nullptr ? resolver->service : spec.client).c_str(),
                summary.c_str());
  }};
  const campaign::CampaignRunner runner{options};
  registry.run(runner, specs, sink);

  // ---- Second campaign on the same (already warm) pool ---------------------
  webtool::WebToolConfig second_config = webtool::WebToolConfig::paper_default();
  second_config.repetitions = 4;  // 4 repetition cells shard across the pool
  const auto report = webtool::WebTool{second_config}.run_cad_test(clients_pool[0]);
  std::printf("\nSecond campaign on the warm pool: webtool CAD interval for "
              "%s = (%s, %s]\n",
              report.client.c_str(),
              report.interval_low ? format_duration(*report.interval_low).c_str()
                                  : "-",
              report.interval_high
                  ? format_duration(*report.interval_high).c_str()
                  : "-");

  const campaign::WorkerPool& pool = campaign::WorkerPool::shared();
  std::printf("\nShared pool: %d threads started once, %llu campaigns "
              "served; reorder buffer high-water %zu. Rerun with any worker "
              "count for byte-identical output.\n",
              pool.threads_started(),
              static_cast<unsigned long long>(pool.jobs_run()),
              runner.last_run_stats().reorder_high_water);
  return 0;
}
