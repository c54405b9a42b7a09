// Web-based testing tool emulation (paper §4.3 (ii), happy-eyeballs.net).
//
// A persistent deployment: 18 fixed delay buckets between 0 and 5 s, each
// with a dedicated IPv4/IPv6 address pair and a dedicated domain (caching
// avoidance). The server echoes the client's source address; everything is
// evaluated client-side from that echo. Client and server state persist
// across the buckets of a repetition (no per-fetch reset — unlike the local
// testbed), and the network carries "real-world" noise.
//
// A campaign shards the bucket × repetition grid at repetition granularity:
// each repetition is one campaign::ScenarioSpec cell owning a full isolated
// deployment (all 18 buckets, persistent client), so repetitions run in
// parallel while the within-repetition ordering the inconsistency metric
// depends on stays sequential.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/scenario.h"
#include "campaign/spec_stream.h"
#include "clients/client.h"
#include "clients/profiles.h"
#include "clients/user_agent.h"

namespace lazyeye::webtool {

struct WebToolConfig {
  /// Delay buckets (paper: 18 values between 0 and 5 s).
  std::vector<SimTime> delays;
  int repetitions = 10;
  std::uint64_t seed = 1;
  /// Real-world network conditions (jitter on every path).
  bool network_noise = true;
  /// Campaign worker threads (0 = one per hardware thread). Results are
  /// identical for any worker count.
  int workers = 0;

  static WebToolConfig paper_default();
};

struct DelayObservation {
  SimTime delay{0};
  int v6_used = 0;
  int v4_used = 0;
  int failures = 0;

  simnet::Family majority() const {
    return v6_used >= v4_used ? simnet::Family::kIpv6 : simnet::Family::kIpv4;
  }
};

/// What one repetition (one pass over all buckets) observed. This is the
/// campaign cell outcome the aggregation consumes.
struct RepetitionOutcome {
  /// Established family per bucket; nullopt = fetch failed.
  std::vector<std::optional<simnet::Family>> families;
  /// Repetition-local inconsistency: IPv4 appeared at a smaller delay than
  /// a later IPv6 use (the Safari signature, §5.1).
  bool inconsistent = false;
};

struct WebToolReport {
  std::string client;
  std::string user_agent;
  clients::UserAgentInfo parsed_agent;
  std::vector<DelayObservation> per_delay;
  /// CAD interval estimate: CAD ∈ (interval_low, interval_high].
  std::optional<SimTime> interval_low;   // largest delay still using IPv6
  std::optional<SimTime> interval_high;  // smallest delay using IPv4
  /// Repetitions where IPv4 appeared at a smaller delay than a later IPv6
  /// use (the Safari inconsistency signature, §5.1).
  int inconsistent_repetitions = 0;
  int total_repetitions = 0;
};

class WebTool {
 public:
  explicit WebTool(WebToolConfig config = WebToolConfig::paper_default());

  /// CAD test: per-bucket IPv6 path delay, dedicated address pair + domain.
  WebToolReport run_cad_test(const clients::ClientProfile& profile,
                             const std::string& os_name = "Linux",
                             const std::string& os_version = "");

  /// RD test: per-bucket DNS answer delay for `delayed_type` (AAAA by
  /// default; pass kA for the §5.2 slow-A experiment).
  WebToolReport run_rd_test(const clients::ClientProfile& profile,
                            dns::RrType delayed_type = dns::RrType::kAaaa,
                            const std::string& os_name = "Linux",
                            const std::string& os_version = "");

  /// One spec per repetition (the campaign cells run_cad_test/run_rd_test
  /// shard across workers), generated per claimed repetition. `rd_mode` and
  /// `delayed_type` are recorded in each cell's WebRepetitionCase payload,
  /// which is the single source of truth the executor reads.
  campaign::SpecStream campaign_spec_stream(
      const clients::ClientProfile& profile, bool rd_mode,
      dns::RrType delayed_type) const;

  /// Stateless executor for one repetition cell: builds the full deployment
  /// (all buckets) in an isolated world seeded from the spec and walks the
  /// buckets with a persistent client. Thread-safe across distinct specs.
  RepetitionOutcome run_repetition(const clients::ClientProfile& profile,
                                   const campaign::ScenarioSpec& spec) const;

  const WebToolConfig& config() const { return config_; }

 private:
  WebToolReport run_campaign(const clients::ClientProfile& profile,
                             const std::string& os_name,
                             const std::string& os_version,
                             bool rd_mode, dns::RrType delayed_type);

  WebToolConfig config_;
};

/// Plugs the web-tool repetition case into a campaign registry. Cells carry
/// the client display name; it is resolved against `profiles` so one matrix
/// can batch several client profiles. `tool` must outlive the registry.
template <typename Outcome>
void register_executor(campaign::Registry<Outcome>& registry,
                       const WebTool& tool,
                       std::vector<clients::ClientProfile> profiles) {
  auto pool = std::make_shared<const std::vector<clients::ClientProfile>>(
      std::move(profiles));
  registry.template add<campaign::WebRepetitionCase>(
      [&tool, pool](const campaign::ScenarioSpec& spec,
                    const campaign::WebRepetitionCase&) {
        return tool.run_repetition(
            campaign::find_registered(
                *pool, spec.client,
                [](const clients::ClientProfile& p) { return p.display_name(); },
                "webtool"),
            spec);
      });
}

}  // namespace lazyeye::webtool
