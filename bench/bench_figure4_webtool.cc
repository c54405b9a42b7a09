// Figure 4: web-based testing tool results — (a) CAD test and (b) RD test —
// per delay bucket, for a representative browser set including Safari's
// dynamic behaviour and the iCloud Private Relay egress operators.
#include <cstdio>

#include "clients/profiles.h"
#include "util/strings.h"
#include "util/table.h"
#include "webtool/webtool.h"

using namespace lazyeye;

namespace {

void print_report(const webtool::WebToolReport& report) {
  std::printf("%s  [UA: %s %s on %s %s]\n", report.client.c_str(),
              report.parsed_agent.browser.c_str(),
              report.parsed_agent.browser_version.c_str(),
              report.parsed_agent.os_name.empty()
                  ? "?"
                  : report.parsed_agent.os_name.c_str(),
              report.parsed_agent.os_version.c_str());
  std::printf("  %-10s", "delay:");
  for (const auto& obs : report.per_delay) {
    std::printf("%7s", format_duration(obs.delay).c_str());
  }
  std::printf("\n  %-10s", "v6/v4:");
  for (const auto& obs : report.per_delay) {
    std::printf("%7s",
                str_format("%d/%d", obs.v6_used, obs.v4_used).c_str());
  }
  std::printf("\n");
  if (report.interval_low && report.interval_high) {
    std::printf("  CAD interval: (%s, %s]",
                format_duration(*report.interval_low).c_str(),
                format_duration(*report.interval_high).c_str());
  } else if (report.interval_low) {
    std::printf("  CAD interval: > %s",
                format_duration(*report.interval_low).c_str());
  } else {
    std::printf("  CAD interval: (unbounded)");
  }
  std::printf("   inconsistent repetitions: %d/%d\n\n",
              report.inconsistent_repetitions, report.total_repetitions);
}

}  // namespace

int main() {
  webtool::WebToolConfig config = webtool::WebToolConfig::paper_default();
  config.repetitions = 10;
  webtool::WebTool tool{config};

  std::printf("Figure 4a: web-based CAD test (18 delays, 0..5 s, 10 reps, "
              "repetitions sharded across workers)\n");
  std::printf("================================================================\n\n");
  print_report(tool.run_cad_test(
      clients::chromium_profile("Chrome", "130.0", "10-2024"), "Windows 10", ""));
  print_report(tool.run_cad_test(clients::firefox_profile("132.0", "10-2024"),
                                 "Linux", ""));
  print_report(
      tool.run_cad_test(clients::safari_profile("17.6"), "Mac OS X", "10.15.7"));
  print_report(tool.run_cad_test(clients::mobile_safari_profile("17.6"), "iOS",
                                 "17.6"));
  print_report(tool.run_cad_test(clients::icpr_egress_profile("Akamai"),
                                 "Mac OS X", "10.15.7"));
  print_report(tool.run_cad_test(clients::icpr_egress_profile("Cloudflare"),
                                 "Mac OS X", "10.15.7"));

  std::printf("Figure 4b: web-based RD test (AAAA answer delayed per bucket)\n");
  std::printf("================================================================\n\n");
  print_report(tool.run_rd_test(clients::safari_profile("17.6"),
                                dns::RrType::kAaaa, "Mac OS X", "10.15.7"));
  print_report(tool.run_rd_test(
      clients::chromium_profile("Chrome", "130.0", "10-2024"),
      dns::RrType::kAaaa, "Windows 10", ""));
  print_report(tool.run_rd_test(clients::icpr_egress_profile("Akamai"),
                                dns::RrType::kAaaa, "Mac OS X", "10.15.7"));
  print_report(tool.run_rd_test(clients::icpr_egress_profile("Cloudflare"),
                                dns::RrType::kAaaa, "Mac OS X", "10.15.7"));

  std::printf(
      "Paper ground truth: Safari web CAD ranges 50 ms..5 s with 6-10/10\n"
      "inconsistent repetitions (Mobile Safari capped at 1 s); other\n"
      "browsers show a sharp transition at their fixed CAD with <=2/10\n"
      "inconsistencies. iCPR egress: Akamai CAD 150 ms / DNS timeout 400 ms,\n"
      "Cloudflare CAD 200 ms / DNS timeout 1.75 s.\n");
  return 0;
}
