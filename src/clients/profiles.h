// Client behaviour profiles: one row per client/version the paper measures
// (Figure 2, Table 2, §5.1-5.2). Each profile is an HeOptions preset plus
// the deviations the parameter space cannot express.
//
// The profile constants are the *ground truth* the measurement pipeline is
// expected to rediscover — they come from the paper's published findings and
// the cited client sources (Chromium 300 ms, curl 200 ms, Firefox 250 ms,
// Safari dynamic / 2 s lab default, wget none).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/stub_resolver.h"
#include "he/options.h"

namespace lazyeye::clients {

enum class ClientKind {
  kBrowser,
  kMobileBrowser,
  kCliTool,
  kProxyEgress,  // iCloud Private Relay egress operators
};

const char* client_kind_name(ClientKind kind);

/// A display name ("Chrome 130.0") held as its two parts: it compares equal
/// to the joined text without building it, so a campaign executor resolves
/// each cell's client without a string allocation.
struct DisplayNameView {
  std::string_view name;
  std::string_view version;

  bool operator==(std::string_view display) const {
    return display.size() == name.size() + 1 + version.size() &&
           display.starts_with(name) && display[name.size()] == ' ' &&
           display.ends_with(version);
  }
};

struct ClientProfile {
  std::string name;     // "Chrome"
  std::string version;  // "130.0"
  std::string release;  // "10-2024"
  ClientKind kind = ClientKind::kBrowser;

  he::HeOptions options;

  /// Stub resolver behaviour (per-query timeout = the "resolver timeout"
  /// browsers delegate to; iCPR egress nodes use 400 ms / 1.75 s).
  SimTime dns_timeout = lazyeye::sec(5);
  /// Query attempts per server (egress operators stop after one).
  int dns_attempts = 2;

  /// Firefox's observed occasional CAD outliers (§5.1): with this
  /// probability a session's CAD gets `cad_outlier_extra` added.
  double cad_outlier_prob = 0.0;
  SimTime cad_outlier_extra{0};

  /// Safari's dynamic web behaviour: when the client runs under "web"
  /// conditions (RTT history + noisy network), the dynamic CAD engages.
  bool dynamic_cad_in_web = false;

  std::string display_name() const { return name + " " + version; }
  DisplayNameView display_name_view() const { return {name, version}; }
  /// Figure 2 row label, e.g. "Chrome (130.0 10-2024)".
  std::string figure_label() const;
};

/// All profiles of the local testbed study (Figure 2 order, oldest at the
/// bottom like the paper's plot): Chrome 88..130, Chromium 130, Edge
/// 90..130, Firefox 96..132, curl, wget.
std::vector<ClientProfile> local_testbed_profiles();

/// Safari (lab + web), Mobile Safari, Chrome Mobile.
std::vector<ClientProfile> apple_and_mobile_profiles();

/// iCloud Private Relay egress operator profiles (Akamai, Cloudflare).
std::vector<ClientProfile> icpr_egress_profiles();

/// Everything (local + apple/mobile + iCPR).
std::vector<ClientProfile> all_client_profiles();

/// Lookup by display name ("Chrome 130.0"); nullopt when unknown.
std::optional<ClientProfile> find_client_profile(const std::string& display);

// -- Individual constructors (used directly by tests/benches) ---------------
ClientProfile chromium_profile(const std::string& name,
                               const std::string& version,
                               const std::string& release,
                               bool hev3_flag = false);
ClientProfile firefox_profile(const std::string& version,
                              const std::string& release);
ClientProfile safari_profile(const std::string& version);
ClientProfile mobile_safari_profile(const std::string& version);
ClientProfile curl_profile();
ClientProfile wget_profile();
ClientProfile icpr_egress_profile(const std::string& operator_name);

}  // namespace lazyeye::clients
