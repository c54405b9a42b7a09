// Figure 2: IP address family of the established connection vs configured
// IPv6 delay, measured on the local testbed for every client/version row.
//
// The paper sweeps 0..400 ms in 5 ms steps; Safari (CAD 2 s) is plotted
// separately. Output: one row per client; '6' = IPv6 established,
// '4' = IPv4 established, 'x' = failure; plus the observed CAD from the
// packet capture.
//
// ALL client rows ride in ONE multi-client matrix — every (client, delay)
// cell shares a single CampaignRunner pool via the executor registry, and
// the collecting sink hands back records in spec order (profile-major), so
// each row prints exactly what a per-client sweep produced.
#include <cstdio>
#include <map>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/sink.h"
#include "clients/profiles.h"
#include "testbed/testbed.h"
#include "util/table.h"

using namespace lazyeye;

int main() {
  // Coarser grid than the paper's 5 ms (25 ms keeps the output readable;
  // SweepSpec::fine_cad() is the paper's grid for full runs).
  const testbed::SweepSpec sweep{ms(0), ms(400), ms(25)};
  testbed::LocalTestbed bed;

  // One joint matrix: every Figure 2 client × the whole delay grid, executed
  // by one pool through the registry. The matrix is a lazy SpecStream —
  // cells are generated as workers claim them, never materialised.
  const auto profiles = clients::local_testbed_profiles();
  const auto specs = bed.multi_client_cad_stream(profiles, sweep);

  const campaign::CampaignRunner runner;
  std::printf("Figure 2: established address family vs configured IPv6 "
              "delay (local testbed)\n");
  std::printf("Sweep: 0..400 ms step 25 ms. '6' IPv6, '4' IPv4, 'x' "
              "failure. Campaign workers: %d.\n\n",
              runner.resolved_workers(specs.size()));

  std::printf("%-28s", "delay [ms]:");
  for (const SimTime d : sweep.values()) {
    std::printf("%4lld", static_cast<long long>(to_ms(d)));
  }
  std::printf("\n");
  campaign::Registry<testbed::RunRecord> registry;
  testbed::register_executors(registry, bed, profiles);
  campaign::CollectingSink<testbed::RunRecord> sink;
  registry.run(runner, specs, sink);

  const std::size_t cells_per_client = sweep.values().size();
  std::map<std::string, SimTime> observed_cads;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    std::printf("%-28s", profiles[p].figure_label().c_str());
    std::optional<SimTime> cad;
    for (std::size_t i = 0; i < cells_per_client; ++i) {
      const auto& rec = sink.result().outcomes[p * cells_per_client + i];
      char symbol = 'x';
      if (rec.established_family == simnet::Family::kIpv6) symbol = '6';
      if (rec.established_family == simnet::Family::kIpv4) symbol = '4';
      std::printf("%4c", symbol);
      if (rec.observed_cad && !cad) cad = rec.observed_cad;
    }
    if (cad) {
      observed_cads[profiles[p].figure_label()] = *cad;
      std::printf("   CAD=%s", format_duration(*cad).c_str());
    } else {
      std::printf("   CAD=-");
    }
    std::printf("\n");
  }

  // Safari row (omitted from the paper's plot for its 2 s CAD).
  const auto safari = clients::safari_profile("17.6");
  const auto below = bed.run_cad_case(safari, ms(1800));
  const auto above = bed.run_cad_case(safari, ms(2300));
  std::printf("\nSafari (17.6) [omitted from the figure, CAD 2 s]: "
              "1800 ms -> %s, 2300 ms -> %s, observed CAD=%s\n",
              below.established_family == simnet::Family::kIpv6 ? "IPv6" : "IPv4",
              above.established_family == simnet::Family::kIpv6 ? "IPv6" : "IPv4",
              above.observed_cad ? format_duration(*above.observed_cad).c_str()
                                 : "-");

  std::printf("\nPaper ground truth: Chromium family 300 ms, Firefox 250 ms, "
              "curl 200 ms, wget none (stays on IPv6), Safari 2 s.\n");
  return 0;
}
