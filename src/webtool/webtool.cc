#include "webtool/webtool.h"

#include "campaign/runner.h"
#include "campaign/sink.h"
#include "dns/auth_server.h"
#include "dns/test_params.h"
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
  spec.label = lazyeye::str_format("webtool %s rep%d", client.c_str(), rep);
  return spec;
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

  // ---- Persistent deployment (one world for the whole repetition). --------
  // Leased, arena-backed world: consecutive repetitions on this worker
  // thread rebuild into the same warm chunks.
  simnet::WorldLease lease;
  simnet::Network net{lease.memory(), spec.world_seed()};
  simnet::Host& server = net.add_host("webtool-server");
  simnet::Host& client_host = net.add_host("client");
  client_host.add_address(IpAddress::must_parse("10.0.0.2"));
  client_host.add_address(IpAddress::must_parse("2001:db8::2"));

  // Dedicated address pair per delay bucket.
  std::vector<IpAddress> v4_addrs;
  std::vector<IpAddress> v6_addrs;
  for (std::size_t i = 0; i < buckets; ++i) {
    v4_addrs.push_back(IpAddress::must_parse(
        lazyeye::str_format("192.0.2.%zu", i + 1)));
    v6_addrs.push_back(IpAddress::must_parse(
        lazyeye::str_format("2001:db8:100::%zu", i + 1)));
    server.add_address(v4_addrs.back());
    server.add_address(v6_addrs.back());
  }
  // DNS lives on its own address so shaping never touches it.
  const auto dns_addr = IpAddress::must_parse("10.0.0.53");
  server.add_address(dns_addr);

  // Shaping: CAD mode delays the per-bucket IPv6 address on the wire.
  if (!rd_mode) {
    for (std::size_t i = 0; i < buckets; ++i) {
      if (config_.delays[i].count() == 0) continue;
      net.qdisc().add_rule(simnet::PacketFilter::to_address(v6_addrs[i]),
                           simnet::NetemSpec::delay_only(config_.delays[i]),
                           lazyeye::str_format("bucket %zu", i));
    }
  }
  // Real-world noise on everything else.
  if (config_.network_noise) {
    net.qdisc().add_rule(simnet::PacketFilter::any(),
                         simnet::NetemSpec{lazyeye::ms(4), lazyeye::ms(3), 0.0},
                         "web noise");
  }

  // Web server: echoes the client's source address (client-side evaluation).
  transport::TcpStack server_tcp{server};
  simnet::Endpoint last_peer;
  server_tcp.listen(443, [&](std::uint64_t, const simnet::Endpoint& peer) {
    last_peer = peer;
  });
  server_tcp.set_data_handler(
      [&](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = last_peer.addr.to_string();
        server_tcp.send_data(conn_id,
                             std::vector<std::uint8_t>{body.begin(), body.end()});
      });

  // DNS: one dedicated domain per bucket (cache busting).
  dns::AuthServer auth{server, 53};
  dns::Zone& zone = auth.add_zone(dns::DnsName::must_parse("he-test.net"));
  std::vector<dns::DnsName> domains;
  for (std::size_t i = 0; i < buckets; ++i) {
    dns::DnsName name;
    if (rd_mode) {
      // RD bucket: both records resolve to the same healthy pair; the DNS
      // answer of `delayed_type` is delayed via qname-encoded parameters.
      name = dns::make_test_name(
          dns::DnsName::must_parse(
              lazyeye::str_format("rd%zu.he-test.net", i)),
          lazyeye::str_format("w%zu", i),
          {{delayed_type, config_.delays[i]}});
      zone.add_a(name, *simnet::Ipv4Address::parse("192.0.2.1"));
      zone.add_aaaa(name, *simnet::Ipv6Address::parse("2001:db8:100::1"));
    } else {
      name = dns::DnsName::must_parse(
          lazyeye::str_format("d%zu.cad.he-test.net", i));
      zone.add_a(name, *simnet::Ipv4Address::parse(
                           v4_addrs[i].v4().to_string()));
      zone.add_aaaa(name, *simnet::Ipv6Address::parse(
                              v6_addrs[i].v6().to_string()));
    }
    domains.push_back(name);
  }

  // ---- Client (state persists across the repetition's buckets). -----------
  dns::StubOptions stub_options;
  stub_options.servers = {{dns_addr, 53}};
  clients::SimulatedClient client{client_host, profile, stub_options,
                                  spec.client_seed()};
  client.set_web_conditions(true);

  RepetitionOutcome outcome;
  outcome.families.resize(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    clients::FetchResult fetch;
    bool done = false;
    client.fetch(domains[i], 443, [&](clients::FetchResult r) {
      fetch = std::move(r);
      done = true;
    });
    net.loop().run();
    if (!done || !fetch.connection.ok || !fetch.response_received) continue;
    // Client-side family determination from the echoed source address.
    outcome.families[i] = fetch.response_text() == "2001:db8::2"
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
  campaign::RunnerOptions runner_options;
  runner_options.workers = config_.workers;
  campaign::CampaignRunner runner{runner_options};
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
  runner.run_streaming<RepetitionOutcome>(
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
