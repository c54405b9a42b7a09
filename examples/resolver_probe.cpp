// Measure one recursive resolver service in the resolver lab and print its
// Table-3-style row plus the raw per-delay observations.
//
//   $ ./examples/resolver_probe Unbound
//   $ ./examples/resolver_probe "Quad9 DNS"
//   $ ./examples/resolver_probe            # lists available services
#include <cstdio>

#include "resolverlab/lab.h"
#include "resolvers/service_profiles.h"
#include "util/strings.h"

using namespace lazyeye;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: %s \"<service>\"\n\navailable services:\n", argv[0]);
    for (const auto& s : resolvers::all_service_profiles()) {
      std::printf("  %-18s %s\n", s.service.c_str(),
                  s.ipv6_resolution_capable ? "" : "(no IPv6-only resolution)");
    }
    return 1;
  }

  const auto service = resolvers::find_service_profile(argv[1]);
  if (!service) {
    std::fprintf(stderr, "unknown service: %s\n", argv[1]);
    return 1;
  }

  std::printf("Service: %s (%s)\n", service->service.c_str(),
              service->local_software ? "local software" : "open service");
  std::printf("IPv6-only delegation resolvable: %s\n\n",
              resolverlab::check_ipv6_only_capability(*service) ? "yes" : "NO");
  if (!service->ipv6_resolution_capable) {
    std::printf("Excluded from the Table 3 measurement (paper §5.3).\n");
    return 0;
  }

  resolverlab::LabConfig config = resolverlab::LabConfig::paper_grid();
  config.repetitions = 20;
  const resolverlab::ServiceMetrics metrics =
      resolverlab::measure_services({*service}, config).front();

  std::printf("AAAA query order:   %s\n",
              metrics.aaaa_order_known
                  ? resolvers::aaaa_order_symbol(metrics.aaaa_order)
                  : "(no NS-name queries seen)");
  std::printf("IPv6 share:         %.1f %%  (paper: %.1f %%)\n",
              metrics.ipv6_share * 100.0,
              service->expected_ipv6_share * 100.0);
  std::printf("Max IPv6 delay:     %s  (paper: %s)%s\n",
              metrics.max_ipv6_delay
                  ? format_duration(*metrics.max_ipv6_delay).c_str()
                  : "-",
              service->expected_max_delay
                  ? format_duration(*service->expected_max_delay).c_str()
                  : "-",
              metrics.delay_unmeasurable ? "  [parallel NS queries]" : "");
  std::printf("Max IPv6 packets:   %d  (paper: %s)\n\n",
              metrics.max_ipv6_packets,
              service->expected_ipv6_packets
                  ? std::to_string(*service->expected_ipv6_packets).c_str()
                  : "-");

  std::printf("%-12s %-10s %-10s\n", "delay", "v6-answers", "runs-choosing-v6");
  for (const SimTime delay : config.delay_grid) {
    int v6_answers = 0;
    int v6_chosen = 0;
    for (const auto& run : metrics.runs) {
      if (run.configured_delay != delay) continue;
      if (run.first_query_v6) ++v6_chosen;
      if (run.answer_via_v6) ++v6_answers;
    }
    std::printf("%-12s %-10d %-10d\n", format_duration(delay).c_str(),
                v6_answers, v6_chosen);
  }
  return 0;
}
