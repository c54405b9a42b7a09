#include "testbed/testbed.h"

#include <stdexcept>

#include "dns/auth_server.h"
#include "dns/test_params.h"
#include "util/strings.h"

namespace lazyeye::testbed {

using simnet::Family;
using simnet::IpAddress;

std::vector<SimTime> SweepSpec::values() const {
  std::vector<SimTime> out;
  // Degenerate grids collapse to {from}: a non-positive step would loop
  // forever, and to < from would silently produce an empty sweep.
  if (step.count() <= 0 || to < from) {
    out.push_back(from);
    return out;
  }
  for (SimTime v = from; v <= to; v += step) out.push_back(v);
  return out;
}

LocalTestbed::LocalTestbed(TestbedOptions options)
    : options_{std::move(options)} {}

namespace {

/// One fully assembled scenario: server+dns+client nodes, echo web server,
/// client capture — everything arena-created inside a pooled world lease.
/// Destroying the Scenario releases the lease; the arena runs finalizers in
/// reverse creation order (capture, client, auth, stacks, then the Network
/// itself), then rewinds for the next cell on this worker thread.
struct Scenario {
  simnet::WorldLease lease;
  simnet::Network* net = nullptr;
  simnet::Host* client_host = nullptr;
  simnet::Host* server_host = nullptr;
  transport::TcpStack* server_tcp = nullptr;
  transport::QuicStack* server_quic = nullptr;
  dns::AuthServer* auth = nullptr;
  dns::Zone* zone = nullptr;
  clients::SimulatedClient* client = nullptr;
  capture::PacketCapture* capture = nullptr;
  simnet::Endpoint last_peer;
};

std::unique_ptr<Scenario> build_scenario(
    const clients::ClientProfile& profile,
    const TestbedOptions& options, std::uint64_t run_id) {
  auto sc = std::make_unique<Scenario>();
  simnet::Arena& arena = sc->lease.arena();
  sc->net = arena.create<simnet::Network>(sc->lease.memory(),
                                          options.seed * 7919 + run_id);

  // Fixed world literals parsed once per process, not once per cell.
  static const IpAddress server_v4 = IpAddress::must_parse("10.0.0.80");
  static const IpAddress server_v6 = IpAddress::must_parse("2001:db8::80");
  static const IpAddress client_v4 = IpAddress::must_parse("10.0.0.2");
  static const IpAddress client_v6 = IpAddress::must_parse("2001:db8::2");
  static const dns::DnsName zone_origin =
      dns::DnsName::must_parse("he-test.lab");

  sc->server_host = &sc->net->add_host("server");
  sc->server_host->add_address(server_v4);
  sc->server_host->add_address(server_v6);
  sc->client_host = &sc->net->add_host("client");
  sc->client_host->add_address(client_v4);
  sc->client_host->add_address(client_v6);

  // Web server module: answers with the client's source address.
  sc->server_tcp = arena.create<transport::TcpStack>(*sc->server_host);
  sc->server_tcp->listen(443,
                         [sp = sc.get()](std::uint64_t,
                                         const simnet::Endpoint& peer) {
                           sp->last_peer = peer;
                         });
  sc->server_tcp->set_data_handler(
      [sp = sc.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = sp->last_peer.addr.to_string();
        sp->server_tcp->send_data(
            conn_id, std::vector<std::uint8_t>{body.begin(), body.end()});
      });
  sc->server_quic = arena.create<transport::QuicStack>(*sc->server_host);
  sc->server_quic->listen(443);
  sc->server_quic->set_data_handler(
      [sp = sc.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = "quic";
        sp->server_quic->send_data(
            conn_id, std::vector<std::uint8_t>{body.begin(), body.end()});
      });

  // DNS module: authoritative server on the server node (IPv4 transport so
  // DNS itself is unaffected by the IPv6 shaping).
  sc->auth = arena.create<dns::AuthServer>(*sc->server_host);
  sc->zone = &sc->auth->add_zone(zone_origin);

  static const std::vector<simnet::Endpoint> dns_servers{{server_v4, 53}};
  dns::StubOptions stub_options;
  stub_options.servers = dns_servers;
  clients::ClientProfile run_profile = profile;
  if (options.dns_timeout_override) {
    run_profile.dns_timeout = *options.dns_timeout_override;
  }
  sc->client = arena.create<clients::SimulatedClient>(
      *sc->client_host, std::move(run_profile), stub_options,
      options.seed * 31 + run_id);
  sc->client->reset_state();  // fresh container per run (§4.3)

  // Packet capture module on the client node.
  sc->capture = arena.create<capture::PacketCapture>(*sc->client_host);
  return sc;
}

RunRecord analyze(const clients::ClientProfile& profile, Scenario& sc,
                  SimTime configured_delay, int repetition,
                  const clients::FetchResult& fetch) {
  RunRecord record;
  record.client = profile.display_name();
  record.configured_delay = configured_delay;
  record.repetition = repetition;
  record.fetch_ok = fetch.connection.ok && fetch.response_received;
  record.completion_time = fetch.connection.completed;

  const capture::PacketCapture& cap = *sc.capture;
  record.established_family = capture::established_family(cap);
  record.observed_cad = capture::infer_cad(cap);
  // Decode the capture's DNS packets once and share the exchange list
  // across every DNS-derived metric (it used to be re-parsed per metric).
  const auto exchanges = capture::dns_exchanges(cap);
  record.observed_rd = capture::infer_resolution_delay(cap, exchanges);
  record.a_wait_gap = capture::a_response_to_v6_syn_gap(cap, exchanges);
  for (const auto& ex : exchanges) {
    if (ex.qtype == dns::RrType::kAaaa || ex.qtype == dns::RrType::kA) {
      record.aaaa_query_first = ex.qtype == dns::RrType::kAaaa;
      break;
    }
  }

  const auto attempts = capture::connection_attempts(cap);
  record.v6_addresses_used =
      capture::distinct_destinations(attempts, Family::kIpv6);
  record.v4_addresses_used =
      capture::distinct_destinations(attempts, Family::kIpv4);
  for (const auto& a : attempts) record.attempt_sequence.push_back(a.family());
  return record;
}

}  // namespace

campaign::ScenarioSpec LocalTestbed::base_spec(
    const clients::ClientProfile& profile, int repetition) {
  campaign::ScenarioSpec spec;
  // The run id doubles as the cell's seed input and its DNS nonce: the
  // legacy serial entry points and the sweep generators draw from the same
  // counter, so no two cells of one testbed ever share a world.
  spec.seed = ++run_counter_;
  spec.id = spec.seed - 1;
  spec.repetition = repetition;
  spec.client = profile.display_name();
  return spec;
}

campaign::ScenarioSpec LocalTestbed::cad_spec(
    const clients::ClientProfile& profile, SimTime v6_delay, int repetition) {
  campaign::ScenarioSpec spec = base_spec(profile, repetition);
  spec.payload = campaign::CadCase{v6_delay};
  spec.label = lazyeye::str_format("cad %s %s rep%d", spec.client.c_str(),
                                   format_duration(v6_delay).c_str(),
                                   repetition);
  return spec;
}

campaign::ScenarioSpec LocalTestbed::rd_spec(
    const clients::ClientProfile& profile, dns::RrType delayed_type,
    SimTime dns_delay, int repetition) {
  campaign::ScenarioSpec spec = base_spec(profile, repetition);
  spec.payload = campaign::ResolutionDelayCase{delayed_type, dns_delay};
  spec.label = lazyeye::str_format("rd %s %s rep%d", spec.client.c_str(),
                                   format_duration(dns_delay).c_str(),
                                   repetition);
  return spec;
}

campaign::ScenarioSpec LocalTestbed::address_selection_spec(
    const clients::ClientProfile& profile, int per_family, int repetition) {
  campaign::ScenarioSpec spec = base_spec(profile, repetition);
  spec.payload = campaign::AddressSelectionCase{per_family};
  spec.label = lazyeye::str_format("sel %s %d+%d rep%d", spec.client.c_str(),
                                   per_family, per_family, repetition);
  return spec;
}

namespace {

/// Pure per-index CAD cell builder — the single assembly point shared by
/// both stream factories, so single- and multi-client matrices can never
/// diverge field by field. Delay-major, repetition-minor, one seed per cell
/// drawn from the counter range the caller reserved.
campaign::ScenarioSpec cad_cell_at(const clients::ClientProfile& profile,
                                   const std::vector<SimTime>& values,
                                   int repetitions, std::uint64_t first_seed,
                                   std::size_t i) {
  campaign::ScenarioSpec spec;
  const std::size_t grid = i / static_cast<std::size_t>(repetitions);
  const int rep = static_cast<int>(i % static_cast<std::size_t>(repetitions));
  const SimTime delay = values[grid];
  spec.seed = first_seed + i;
  spec.id = i;
  spec.repetition = rep;
  spec.grid_index = static_cast<int>(grid);
  spec.client = profile.display_name();
  spec.payload = campaign::CadCase{delay};
  spec.label = lazyeye::str_format("cad %s %s rep%d", spec.client.c_str(),
                                   format_duration(delay).c_str(), rep);
  return spec;
}

}  // namespace

campaign::SpecStream LocalTestbed::cad_sweep_stream(
    const clients::ClientProfile& profile, const SweepSpec& sweep,
    int repetitions) {
  auto values = sweep.values();
  const std::size_t total =
      values.size() * static_cast<std::size_t>(repetitions);
  // Reserve the counter range the per-cell cad_spec() path would have
  // consumed, so sweeps and one-off specs on one testbed never collide.
  const std::uint64_t first_seed = run_counter_ + 1;
  run_counter_ += total;
  return campaign::SpecStream{
      total, [profile, values = std::move(values), repetitions,
              first_seed](std::size_t i) {
        return cad_cell_at(profile, values, repetitions, first_seed, i);
      }};
}

campaign::SpecStream LocalTestbed::multi_client_cad_stream(
    std::vector<clients::ClientProfile> profiles, const SweepSpec& sweep,
    int repetitions) {
  auto values = sweep.values();
  const std::size_t per_client =
      values.size() * static_cast<std::size_t>(repetitions);
  const std::size_t total = per_client * profiles.size();
  const std::uint64_t first_seed = run_counter_ + 1;
  run_counter_ += total;
  return campaign::SpecStream{
      total, [profiles = std::move(profiles), values = std::move(values),
              repetitions, per_client, first_seed](std::size_t i) {
        // Profile-major, same seed sequence as back-to-back solo sweeps;
        // ids are dense across the joint matrix.
        campaign::ScenarioSpec spec =
            cad_cell_at(profiles[i / per_client], values, repetitions,
                        first_seed + (i / per_client) * per_client,
                        i % per_client);
        spec.id = i;
        return spec;
      }};
}

RunRecord LocalTestbed::run_spec(const clients::ClientProfile& profile,
                                 const campaign::ScenarioSpec& spec) const {
  const std::uint64_t run_id = spec.seed;
  auto sc = build_scenario(profile, options_, run_id);
  const auto nonce =
      lazyeye::str_format("%llu", static_cast<unsigned long long>(run_id));

  // Test-name stems parsed once per process, not once per cell.
  static const dns::DnsName cad_stem = dns::DnsName::must_parse("cad.he-test.lab");
  static const dns::DnsName rd_stem = dns::DnsName::must_parse("rd.he-test.lab");
  static const dns::DnsName sel_stem = dns::DnsName::must_parse("sel.he-test.lab");

  dns::DnsName name;
  SimTime configured_delay{0};
  if (const auto* cad = spec.get_if<campaign::CadCase>()) {
    configured_delay = cad->v6_delay;
    // tc-netem on the server node: delay IPv6 *TCP* traffic (the paper's
    // DNS runs on the same host; delaying all v6 would skew the DNS
    // baseline, and the client's stub points at the v4 address anyway).
    simnet::PacketFilter v6_tcp;
    v6_tcp.family = Family::kIpv6;
    v6_tcp.proto = simnet::Protocol::kTcp;
    sc->server_host->egress().add_rule(
        v6_tcp, simnet::NetemSpec::delay_only(cad->v6_delay), "delay v6");

    // Unique name per run to rule out caching (nonce label).
    name = dns::make_test_name(cad_stem,
                               nonce, {});
    sc->zone->add_a(name, *simnet::Ipv4Address::parse("10.0.0.80"));
    sc->zone->add_aaaa(name, *simnet::Ipv6Address::parse("2001:db8::80"));
  } else if (const auto* rd = spec.get_if<campaign::ResolutionDelayCase>()) {
    configured_delay = rd->dns_delay;
    name = dns::make_test_name(rd_stem,
                               nonce, {{rd->delayed_type, rd->dns_delay}});
    sc->zone->add_a(name, *simnet::Ipv4Address::parse("10.0.0.80"));
    sc->zone->add_aaaa(name, *simnet::Ipv6Address::parse("2001:db8::80"));
  } else if (const auto* sel = spec.get_if<campaign::AddressSelectionCase>()) {
    name = dns::make_test_name(sel_stem,
                               nonce, {});
    // All records point to unresponsive addresses (no host owns them).
    for (int i = 1; i <= sel->per_family; ++i) {
      sc->zone->add_aaaa(name, *simnet::Ipv6Address::parse(lazyeye::str_format(
                                   "2001:db8:dead::%d", i)));
      sc->zone->add_a(name, *simnet::Ipv4Address::parse(
                                lazyeye::str_format("10.99.0.%d", i)));
    }
  } else {
    throw std::invalid_argument(
        lazyeye::str_format("LocalTestbed::run_spec: unsupported case %s",
                            campaign::case_name(spec.payload)));
  }

  clients::FetchResult fetch;
  sc->client->fetch(name, 443, [&](clients::FetchResult r) {
    fetch = std::move(r);
  });
  sc->net->loop().run();
  return analyze(profile, *sc, configured_delay, spec.repetition, fetch);
}

std::vector<RunRecord> LocalTestbed::run_campaign(
    const clients::ClientProfile& profile,
    const std::vector<campaign::ScenarioSpec>& specs,
    const campaign::CampaignRunner& runner) const {
  return runner.run<RunRecord>(specs, [&](const campaign::ScenarioSpec& spec) {
    return run_spec(profile, spec);
  });
}

RunRecord LocalTestbed::run_cad_case(const clients::ClientProfile& profile,
                                     SimTime v6_delay, int repetition) {
  return run_spec(profile, cad_spec(profile, v6_delay, repetition));
}

RunRecord LocalTestbed::run_rd_case(const clients::ClientProfile& profile,
                                    dns::RrType delayed_type,
                                    SimTime dns_delay, int repetition) {
  return run_spec(profile, rd_spec(profile, delayed_type, dns_delay,
                                   repetition));
}

RunRecord LocalTestbed::run_address_selection_case(
    const clients::ClientProfile& profile, int per_family, int repetition) {
  return run_spec(profile,
                  address_selection_spec(profile, per_family, repetition));
}

std::vector<RunRecord> LocalTestbed::sweep_cad(
    const clients::ClientProfile& profile, const SweepSpec& sweep,
    int repetitions, int workers) {
  campaign::RunnerOptions options;
  options.workers = workers;
  // Lazy fast path: cells are generated as workers claim them, so the sweep
  // never materialises its spec vector. Same cells, same records.
  return campaign::CampaignRunner{options}.run<RunRecord>(
      cad_sweep_stream(profile, sweep, repetitions),
      [this, &profile](const campaign::ScenarioSpec& spec) {
        return run_spec(profile, spec);
      });
}

}  // namespace lazyeye::testbed
