#include "clients/profiles.h"

namespace lazyeye::clients {

const char* client_kind_name(ClientKind kind) {
  switch (kind) {
    case ClientKind::kBrowser: return "browser";
    case ClientKind::kMobileBrowser: return "mobile browser";
    case ClientKind::kCliTool: return "cli tool";
    case ClientKind::kProxyEgress: return "proxy egress";
  }
  return "?";
}

std::string ClientProfile::figure_label() const {
  if (release.empty()) return name + " (" + version + ")";
  return name + " (" + version + " " + release + ")";
}

ClientProfile chromium_profile(const std::string& name,
                               const std::string& version,
                               const std::string& release, bool hev3_flag) {
  ClientProfile p;
  p.name = name;
  p.version = version;
  p.release = release;
  p.kind = ClientKind::kBrowser;

  he::HeOptions o;
  // Chromium's TransportConnectJob uses a 300 ms fallback delay [paper §5.1,
  // chromium net/socket/transport_connect_job.h].
  o.connection_attempt_delay = lazyeye::ms(300);
  if (hev3_flag) {
    // The EnableHappyEyeballsV3 feature flag adds a Resolution Delay and
    // removes the wait-for-A behaviour (§5.2).
    o.resolution_delay = lazyeye::ms(50);
    o.wait_for_a_record = false;
    o.fail_on_a_timeout = false;
  } else {
    o.resolution_delay = std::nullopt;  // no own DNS timeout
    o.wait_for_a_record = true;         // waits for the A answer (§5.2)
    o.fail_on_a_timeout = true;         // complete failures on slow A (§5.2)
  }
  // Table 2: one address per family used, no visible address selection.
  o.max_addresses_per_family = 1;
  o.interlace = he::InterlaceMode::kNone;
  p.options = o;
  return p;
}

ClientProfile firefox_profile(const std::string& version,
                              const std::string& release) {
  ClientProfile p;
  p.name = "Firefox";
  p.version = version;
  p.release = release;
  p.kind = ClientKind::kBrowser;

  he::HeOptions o;
  // Firefox follows the RFC recommendation of 250 ms (§5.1).
  o.connection_attempt_delay = lazyeye::ms(250);
  o.resolution_delay = std::nullopt;
  o.wait_for_a_record = true;
  o.fail_on_a_timeout = true;  // same complete-failure behaviour as Chrome
  o.max_addresses_per_family = 1;
  o.interlace = he::InterlaceMode::kNone;
  p.options = o;

  // "Only Firefox has a few outliers ... waits longer than 250 ms" (§5.1).
  p.cad_outlier_prob = 0.05;
  p.cad_outlier_extra = lazyeye::ms(40);
  return p;
}

ClientProfile safari_profile(const std::string& version) {
  ClientProfile p;
  p.name = "Safari";
  p.version = version;
  p.kind = ClientKind::kBrowser;

  he::HeOptions o;
  // The only client implementing HEv2's DNS handling (Table 2).
  o.resolution_delay = lazyeye::ms(50);  // RFC recommendation (§5.2)
  o.wait_for_a_record = false;
  // Dynamic CAD: 2 s without history (local testbed), RTT-driven on the web
  // where observed values ranged from 50 ms up to 5 s (§5.1).
  o.dynamic_cad.enabled = true;
  o.dynamic_cad.no_history_default = lazyeye::sec(2);
  o.dynamic_cad.minimum = lazyeye::ms(50);
  o.dynamic_cad.maximum = lazyeye::sec(5);
  o.dynamic_cad.rtt_multiplier = 10.0;
  // Address selection: FAFC 2, one IPv4 after the first two IPv6, then the
  // remaining IPv6, then the remaining IPv4 (App. D).
  o.first_address_family_count = 2;
  o.interlace = he::InterlaceMode::kFirstOtherThenRest;
  o.max_addresses_per_family = 10;
  p.options = o;
  p.dynamic_cad_in_web = true;
  return p;
}

ClientProfile mobile_safari_profile(const std::string& version) {
  ClientProfile p = safari_profile(version);
  p.name = "Mobile Safari";
  p.kind = ClientKind::kMobileBrowser;
  // "the CAD never rose beyond 1 s ... on mobile phones with iOS" (§5.1).
  p.options.dynamic_cad.maximum = lazyeye::sec(1);
  p.options.dynamic_cad.no_history_default = lazyeye::sec(1);
  return p;
}

ClientProfile curl_profile() {
  ClientProfile p;
  p.name = "curl";
  p.version = "7.88.1";
  p.release = "02-2023";
  p.kind = ClientKind::kCliTool;

  he::HeOptions o;
  // curl uses the smallest CAD of 200 ms (--happy-eyeballs-timeout-ms
  // default, §5.1).
  o.connection_attempt_delay = lazyeye::ms(200);
  o.resolution_delay = std::nullopt;
  o.wait_for_a_record = true;  // getaddrinfo-style full resolution
  o.fail_on_a_timeout = false;  // proceeds with AAAA-only on A failure
  o.max_addresses_per_family = 1;
  o.interlace = he::InterlaceMode::kNone;
  p.options = o;
  return p;
}

ClientProfile wget_profile() {
  ClientProfile p;
  p.name = "wget";
  p.version = "1.21.3";
  p.release = "02-2022";
  p.kind = ClientKind::kCliTool;

  // wget does not implement any type of HE (Table 2 footnote 3): it
  // resolves, then works through the preferred family only and fails
  // without ever touching the IPv4 addresses.
  he::HeOptions o = he::HeOptions::none();
  // wget's connect timeout: SYN retransmissions for ~15 s in our model.
  o.tcp.syn_rto = lazyeye::sec(1);
  o.tcp.syn_retries = 3;
  o.overall_timeout = lazyeye::sec(60);
  p.options = o;
  return p;
}

ClientProfile icpr_egress_profile(const std::string& operator_name) {
  ClientProfile p;
  p.name = "Safari via iCPR (" + operator_name + ")";
  p.version = "17.6";
  p.kind = ClientKind::kProxyEgress;

  he::HeOptions o;
  o.wait_for_a_record = true;
  o.resolution_delay = std::nullopt;
  o.max_addresses_per_family = 1;
  o.interlace = he::InterlaceMode::kNone;
  if (operator_name == "Akamai") {
    // "Akamai and Cloudflare egress nodes use a CAD of 150 ms and 200 ms"
    // (§5.1); Akamai's resolver timeout is 400 ms for both A and AAAA
    // (§5.2).
    o.connection_attempt_delay = lazyeye::ms(150);
    p.dns_timeout = lazyeye::ms(400);
  } else {
    o.connection_attempt_delay = lazyeye::ms(200);
    // "Cloudflare egress nodes use IPv6 up until a delay of 1.75 s" (§5.2).
    p.dns_timeout = lazyeye::ms(1750);
  }
  p.dns_attempts = 1;  // egress operators give up after the single timeout
  p.options = o;
  return p;
}

std::vector<ClientProfile> local_testbed_profiles() {
  // Figure 2 rows, top to bottom.
  return {
      chromium_profile("Chrome", "130.0", "10-2024"),
      chromium_profile("Chrome", "120.0", "11-2023"),
      chromium_profile("Chrome", "108.0", "11-2022"),
      chromium_profile("Chrome", "96.0", "11-2021"),
      chromium_profile("Chrome", "88.0", "01-2021"),
      chromium_profile("Chromium", "130.0", "10-2024"),
      chromium_profile("Edge", "130.0", "10-2024"),
      chromium_profile("Edge", "120.0", "12-2023"),
      chromium_profile("Edge", "108.0", "12-2022"),
      chromium_profile("Edge", "96.0", "11-2021"),
      chromium_profile("Edge", "90.0", "04-2021"),
      firefox_profile("132.0", "10-2024"),
      firefox_profile("122.0", "01-2024"),
      firefox_profile("109.0", "01-2023"),
      firefox_profile("96.0", "01-2022"),
      curl_profile(),
      wget_profile(),
  };
}

std::vector<ClientProfile> apple_and_mobile_profiles() {
  std::vector<ClientProfile> out{
      safari_profile("17.6"),
      mobile_safari_profile("17.6"),
  };
  ClientProfile chrome_mobile = chromium_profile("Chrome Mobile", "130.0.0", "");
  chrome_mobile.kind = ClientKind::kMobileBrowser;
  out.push_back(std::move(chrome_mobile));
  return out;
}

std::vector<ClientProfile> icpr_egress_profiles() {
  return {icpr_egress_profile("Akamai"), icpr_egress_profile("Cloudflare")};
}

std::vector<ClientProfile> all_client_profiles() {
  auto out = local_testbed_profiles();
  for (auto& p : apple_and_mobile_profiles()) out.push_back(std::move(p));
  for (auto& p : icpr_egress_profiles()) out.push_back(std::move(p));
  return out;
}

std::optional<ClientProfile> find_client_profile(const std::string& display) {
  for (const auto& p : all_client_profiles()) {
    if (p.display_name() == display) return p;
  }
  return std::nullopt;
}

}  // namespace lazyeye::clients
