#include "webtool/webtool.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "campaign/runner.h"
#include "campaign/sink.h"
#include "dns/test_params.h"
#include "testbed/world.h"
#include "util/strings.h"

namespace lazyeye::webtool {

using simnet::Family;
using simnet::IpAddress;

WebToolConfig WebToolConfig::paper_default() {
  WebToolConfig config;
  // 18 delays between 0 and 5 s (Fig. 4a granularity: fine around the RFC
  // recommendations, coarse toward the tail).
  for (const int delay_ms : {0, 10, 25, 50, 100, 150, 200, 250, 300, 350, 400,
                             500, 750, 1000, 1500, 2000, 3000, 5000}) {
    config.delays.push_back(lazyeye::ms(delay_ms));
  }
  return config;
}

WebTool::WebTool(WebToolConfig config) : config_{std::move(config)} {}

WebToolReport WebTool::run_cad_test(const clients::ClientProfile& profile,
                                    const std::string& os_name,
                                    const std::string& os_version) {
  return run_campaign(profile, os_name, os_version, /*rd_mode=*/false,
                      dns::RrType::kAaaa);
}

WebToolReport WebTool::run_rd_test(const clients::ClientProfile& profile,
                                   dns::RrType delayed_type,
                                   const std::string& os_name,
                                   const std::string& os_version) {
  return run_campaign(profile, os_name, os_version, /*rd_mode=*/true,
                      delayed_type);
}

namespace {

campaign::ScenarioSpec repetition_cell(const std::string& client,
                                       std::uint64_t config_seed, bool rd_mode,
                                       dns::RrType delayed_type, int rep) {
  campaign::ScenarioSpec spec;
  spec.id = static_cast<std::uint64_t>(rep);
  spec.repetition = rep;
  // One seed per repetition cell: the whole deployment (netem noise,
  // client behaviour) for that repetition derives from it.
  spec.seed = config_seed * 1000003ULL + static_cast<std::uint64_t>(rep) + 1;
  spec.client = client;
  spec.payload = campaign::WebRepetitionCase{rd_mode, delayed_type};
  return spec;
}

/// Delay bucket `i`'s addresses and names; every repetition of every
/// configuration uses the same ones.
struct Bucket {
  IpAddress v4;           // 192.0.2.<i+1>
  IpAddress v6;           // 2001:db8:100::<i+1> (see dns::decoy_v6)
  std::string rule;       // "bucket <i>"
  dns::DnsName rd_stem;   // rd<i>.he-test.net
  std::string nonce;      // w<i>
  dns::DnsName cad_name;  // d<i>.cad.he-test.net
};

/// Bucket `i` from a table built once per process. 192.0.2.0/24 holds 255
/// buckets; a larger configuration throws, as parsing "192.0.2.256" did.
const Bucket& bucket(std::size_t i) {
  static const std::vector<Bucket> table = [] {
    const auto net = dns::DnsName::must_parse("he-test.net");
    const auto cad = dns::DnsName::must_parse("cad.he-test.net");
    const auto v6_base = *simnet::Ipv6Address::parse("2001:db8:100::");
    std::vector<Bucket> out;
    out.reserve(255);
    for (unsigned b = 0; b < 255; ++b) {
      simnet::Ipv6Address v6 = v6_base;
      v6.set_group(7, lazyeye::decimal_digits_as_hex(b + 1));
      out.push_back(Bucket{simnet::Ipv4Address{0xc0000200u | (b + 1)}, v6,
                           lazyeye::str_cat("bucket ", b),
                           net.prepend(lazyeye::str_cat("rd", b)),
                           lazyeye::str_cat('w', b),
                           cad.prepend(lazyeye::str_cat('d', b))});
    }
    return out;
  }();
  if (i >= table.size()) {
    throw std::invalid_argument("webtool: more than 255 delay buckets");
  }
  return table[i];
}

}  // namespace

campaign::SpecStream WebTool::campaign_spec_stream(
    const clients::ClientProfile& profile, bool rd_mode,
    dns::RrType delayed_type) const {
  return campaign::SpecStream{
      static_cast<std::size_t>(config_.repetitions),
      [client = profile.display_name(), seed = config_.seed, rd_mode,
       delayed_type](std::size_t i) {
        return repetition_cell(client, seed, rd_mode, delayed_type,
                               static_cast<int>(i));
      }};
}

RepetitionOutcome WebTool::run_repetition(const clients::ClientProfile& profile,
                                          const campaign::ScenarioSpec& spec) const {
  // Throws bad_variant_access on a non-web cell: routing a foreign case
  // here is a programming error, not a measurement outcome.
  const auto& rep_case = std::get<campaign::WebRepetitionCase>(spec.payload);
  const bool rd_mode = rep_case.rd_mode;
  const dns::RrType delayed_type = rep_case.delayed_type;
  const std::size_t buckets = config_.delays.size();
  static const dns::DnsName zone_origin =
      dns::DnsName::must_parse("he-test.net");

  // ---- Persistent deployment (one world for the whole repetition). --------
  std::vector<dns::DnsName> domains;
  const testbed::TwoNodeWorld world{
      profile, zone_origin, spec.world_seed(), spec.client_seed(),
      [&](testbed::TwoNodeWorld& w) {
        // Dedicated address pair per delay bucket.
        for (std::size_t i = 0; i < buckets; ++i) {
          w.server_host->add_address(bucket(i).v4);
          w.server_host->add_address(bucket(i).v6);
        }
        // Shaping: CAD mode delays the per-bucket IPv6 address on the wire.
        if (!rd_mode) {
          for (std::size_t i = 0; i < buckets; ++i) {
            if (config_.delays[i].count() == 0) continue;
            w.net->qdisc().add_rule(
                simnet::PacketFilter::to_address(bucket(i).v6),
                simnet::NetemSpec::delay_only(config_.delays[i]),
                bucket(i).rule);
          }
        }
        // Real-world noise (jitter) on everything else.
        w.net->qdisc().add_rule(
            simnet::PacketFilter::any(),
            simnet::NetemSpec{lazyeye::ms(4), lazyeye::ms(3), 0.0},
            "web noise");

        // DNS: one dedicated domain per bucket (cache busting).
        for (std::size_t i = 0; i < buckets; ++i) {
          const Bucket& b = bucket(i);
          if (rd_mode) {
            // RD bucket: both records resolve to the first bucket's healthy
            // pair; the DNS answer of `delayed_type` is delayed via
            // qname-encoded parameters.
            domains.push_back(dns::make_test_name(
                b.rd_stem, b.nonce, {{delayed_type, config_.delays[i]}}));
            w.zone->add_a(domains.back(), bucket(0).v4.v4());
            w.zone->add_aaaa(domains.back(), bucket(0).v6.v6());
          } else {
            domains.push_back(b.cad_name);
            w.zone->add_a(domains.back(), b.v4.v4());
            w.zone->add_aaaa(domains.back(), b.v6.v6());
          }
        }
      }};
  // Client state persists across the repetition's buckets.
  world.client->set_web_conditions(true);

  RepetitionOutcome outcome;
  outcome.families.resize(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    clients::FetchResult fetch;
    bool done = false;
    world.client->fetch(domains[i], 443, [&](clients::FetchResult r) {
      fetch = std::move(r);
      done = true;
    });
    world.net->loop().run();
    if (!done || !fetch.connection.ok || !fetch.response_received) continue;
    // Client-side family determination from the echoed source address,
    // compared byte for byte.
    constexpr std::string_view kClientV6 = "2001:db8::2";
    outcome.families[i] = std::ranges::equal(fetch.response, kClientV6)
                              ? Family::kIpv6
                              : Family::kIpv4;
  }

  // Inconsistency: IPv4 at a smaller delay than a later IPv6 use.
  bool v4_seen = false;
  for (std::size_t i = 0; i < buckets; ++i) {
    if (!outcome.families[i]) continue;
    if (*outcome.families[i] == Family::kIpv4) v4_seen = true;
    if (*outcome.families[i] == Family::kIpv6 && v4_seen) {
      outcome.inconsistent = true;
    }
  }
  return outcome;
}

WebToolReport WebTool::run_campaign(const clients::ClientProfile& profile,
                                    const std::string& os_name,
                                    const std::string& os_version,
                                    bool rd_mode, dns::RrType delayed_type) {
  const std::size_t buckets = config_.delays.size();

  WebToolReport report;
  report.client = profile.display_name();
  report.user_agent = clients::make_user_agent(profile.name, profile.version,
                                               os_name, os_version);
  report.parsed_agent = clients::parse_user_agent(report.user_agent);
  report.per_delay.resize(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    report.per_delay[i].delay = config_.delays[i];
  }
  report.total_repetitions = config_.repetitions;

  // Shard the repetition cells across the worker pool and fold each outcome
  // into the report as it streams in. Delivery is in repetition order (the
  // sink contract), so aggregation is worker-count independent — and no
  // outcome vector is ever materialised.
  campaign::CallbackSink<RepetitionOutcome> sink{
      [&](const campaign::ScenarioSpec&, RepetitionOutcome outcome) {
        for (std::size_t i = 0; i < buckets; ++i) {
          if (!outcome.families[i]) {
            ++report.per_delay[i].failures;
          } else if (*outcome.families[i] == Family::kIpv6) {
            ++report.per_delay[i].v6_used;
          } else {
            ++report.per_delay[i].v4_used;
          }
        }
        if (outcome.inconsistent) ++report.inconsistent_repetitions;
      }};
  campaign::CampaignRunner{}.run_streaming<RepetitionOutcome>(
      campaign_spec_stream(profile, rd_mode, delayed_type),
      [&](const campaign::ScenarioSpec& spec) {
        return run_repetition(profile, spec);
      },
      sink);

  // Interval estimate from per-bucket majorities.
  for (std::size_t i = 0; i < buckets; ++i) {
    const auto& obs = report.per_delay[i];
    if (obs.v6_used + obs.v4_used == 0) continue;
    if (obs.majority() == Family::kIpv6) {
      if (!report.interval_low || obs.delay > *report.interval_low) {
        report.interval_low = obs.delay;
      }
    }
  }
  for (std::size_t i = 0; i < buckets; ++i) {
    const auto& obs = report.per_delay[i];
    if (obs.v6_used + obs.v4_used == 0) continue;
    if (obs.majority() == Family::kIpv4 &&
        (!report.interval_low || obs.delay > *report.interval_low)) {
      if (!report.interval_high || obs.delay < *report.interval_high) {
        report.interval_high = obs.delay;
      }
    }
  }
  return report;
}

}  // namespace lazyeye::webtool
