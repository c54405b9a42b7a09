// Table 3: resolver IPv6 usage as observed on the authoritative name
// server — AAAA query order, IPv6 share, maximum IPv6 delay tolerated, and
// IPv6 packets per resolution, for the local resolver software and every
// IPv6-capable open service.
#include <cstdio>
#include <vector>

#include "resolverlab/lab.h"
#include "resolvers/service_profiles.h"
#include "util/strings.h"
#include "util/table.h"

using namespace lazyeye;

int main() {
  resolverlab::LabConfig config = resolverlab::LabConfig::paper_grid();
  // More repetitions than the paper's 9: services with a ~10 % IPv6 share
  // need enough IPv6-choosing runs per delay bucket for the max-delay
  // estimate to stabilise (the simulation is cheap).
  config.repetitions = 40;

  TextTable table{{"Service", "AAAA Query", "IPv6 Share", "Max. IPv6 Delay",
                   "# IPv6 Pkts", "| paper:", "Share", "Delay", "Pkts"}};
  table.set_align(2, TextTable::Align::kRight);
  table.set_align(3, TextTable::Align::kRight);
  table.set_align(4, TextTable::Align::kRight);
  table.set_align(6, TextTable::Align::kRight);
  table.set_align(7, TextTable::Align::kRight);
  table.set_align(8, TextTable::Align::kRight);

  std::vector<resolvers::ServiceProfile> services;
  for (const auto& service : resolvers::all_service_profiles()) {
    if (!service.ipv6_resolution_capable) continue;  // Table 4 exclusion
    services.push_back(service);
  }
  // Cross-service campaign: every (service, delay, repetition) cell of ALL
  // Table 3 rows lands in one matrix on one worker pool. Rows are identical
  // to per-service runs.
  const auto rows = resolverlab::measure_services(services, config);

  bool separated = false;
  for (std::size_t s = 0; s < services.size(); ++s) {
    const auto& service = services[s];
    const auto& metrics = rows[s];
    if (!service.local_software && !separated) {
      table.add_separator();
      separated = true;
    }

    std::string order = metrics.aaaa_order_known
                            ? resolvers::aaaa_order_symbol(metrics.aaaa_order)
                            : "-";
    std::string delay = metrics.max_ipv6_delay
                            ? format_duration(*metrics.max_ipv6_delay)
                            : "-";
    if (metrics.delay_unmeasurable) delay += " (parallel)";

    table.add_row(
        {service.service, order,
         str_format("%.1f %%", metrics.ipv6_share * 100.0), delay,
         metrics.max_ipv6_packets > 0 ? std::to_string(metrics.max_ipv6_packets)
                                      : "-",
         "|", str_format("%.1f %%", service.expected_ipv6_share * 100.0),
         service.expected_max_delay
             ? format_duration(*service.expected_max_delay)
             : "-",
         service.expected_ipv6_packets
             ? std::to_string(*service.expected_ipv6_packets)
             : "-"});
  }

  std::printf("Table 3: resolver IPv6 usage observed at the authoritative "
              "name server\n");
  std::printf("(measured columns from this run's auth-side query logs; "
              "paper columns from Table 3)\n\n%s\n",
              table.render().c_str());
  std::printf(
      "Notes: measured max delay is quantised to the sweep grid (one\n"
      "millisecond below each distinctive timeout). Unbound additionally\n"
      "retries IPv6 in ~44%% of runs with its timeout backed off 3x\n"
      "(376 ms -> 1128 ms), visible as the second IPv6 packet.\n");
  return 0;
}
