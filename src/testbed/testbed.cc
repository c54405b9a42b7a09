#include "testbed/testbed.h"

#include <stdexcept>

#include "dns/test_params.h"
#include "testbed/world.h"
#include "util/strings.h"

namespace lazyeye::testbed {

using simnet::Family;

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

RunRecord analyze(const clients::ClientProfile& profile,
                  const capture::PacketCapture& cap, SimTime configured_delay,
                  int repetition, const clients::FetchResult& fetch) {
  RunRecord record;
  record.client = profile.display_name();
  record.configured_delay = configured_delay;
  record.repetition = repetition;
  record.fetch_ok = fetch.connection.ok && fetch.response_received;
  record.completion_time = fetch.connection.completed;

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
  return spec;
}

campaign::ScenarioSpec LocalTestbed::rd_spec(
    const clients::ClientProfile& profile, dns::RrType delayed_type,
    SimTime dns_delay, int repetition) {
  campaign::ScenarioSpec spec = base_spec(profile, repetition);
  spec.payload = campaign::ResolutionDelayCase{delayed_type, dns_delay};
  return spec;
}

campaign::ScenarioSpec LocalTestbed::address_selection_spec(
    const clients::ClientProfile& profile, int per_family, int repetition) {
  campaign::ScenarioSpec spec = base_spec(profile, repetition);
  spec.payload = campaign::AddressSelectionCase{per_family};
  return spec;
}

campaign::SpecStream LocalTestbed::multi_client_cad_stream(
    std::vector<clients::ClientProfile> profiles, const SweepSpec& sweep,
    int repetitions) {
  auto values = sweep.values();
  const std::size_t per_client =
      values.size() * static_cast<std::size_t>(repetitions);
  const std::size_t total = per_client * profiles.size();
  // Reserve the counter range the per-cell cad_spec() path would have
  // consumed, so sweeps and one-off specs on one testbed never collide.
  const std::uint64_t first_seed = run_counter_ + 1;
  run_counter_ += total;
  return campaign::SpecStream{
      total, [profiles = std::move(profiles), values = std::move(values),
              repetitions, per_client, first_seed](std::size_t i) {
        // Profile-major, then delay-major, repetition-minor, one seed per
        // cell: the same seed sequence as back-to-back solo sweeps. Ids are
        // dense across the joint matrix.
        const std::size_t cell = i % per_client;
        const auto reps = static_cast<std::size_t>(repetitions);
        campaign::ScenarioSpec spec;
        spec.seed = first_seed + i;
        spec.id = i;
        spec.repetition = static_cast<int>(cell % reps);
        spec.client = profiles[i / per_client].display_name();
        spec.payload = campaign::CadCase{values[cell / reps]};
        return spec;
      }};
}

RunRecord LocalTestbed::run_spec(const clients::ClientProfile& profile,
                                 const campaign::ScenarioSpec& spec) const {
  // Zone origin and test-name stems parsed once per process, not per cell.
  static const dns::DnsName zone_origin = dns::DnsName::must_parse("he-test.lab");
  static const dns::DnsName cad_stem = dns::DnsName::must_parse("cad.he-test.lab");
  static const dns::DnsName rd_stem = dns::DnsName::must_parse("rd.he-test.lab");
  static const dns::DnsName sel_stem = dns::DnsName::must_parse("sel.he-test.lab");

  clients::ClientProfile run_profile = profile;
  if (options_.dns_timeout_override) {
    run_profile.dns_timeout = *options_.dns_timeout_override;
  }
  const TwoNodeWorld world{std::move(run_profile), zone_origin,
                           cell_net_seed(options_.seed, spec.seed),
                           cell_client_seed(options_.seed, spec.seed)};
  const auto* cap =
      world.lease.arena().create<capture::PacketCapture>(*world.client_host);
  const auto nonce = lazyeye::str_cat(spec.seed);
  const TwoNodeAddresses& addrs = two_node_addresses();

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
    world.server_host->egress().add_rule(
        v6_tcp, simnet::NetemSpec::delay_only(cad->v6_delay), "delay v6");

    // Unique name per run to rule out caching (nonce label).
    name = dns::make_test_name(cad_stem, nonce, {});
    world.zone->add_a(name, addrs.server_v4.v4());
    world.zone->add_aaaa(name, addrs.server_v6.v6());
  } else if (const auto* rd = spec.get_if<campaign::ResolutionDelayCase>()) {
    configured_delay = rd->dns_delay;
    name = dns::make_test_name(rd_stem,
                               nonce, {{rd->delayed_type, rd->dns_delay}});
    world.zone->add_a(name, addrs.server_v4.v4());
    world.zone->add_aaaa(name, addrs.server_v6.v6());
  } else if (const auto* sel = spec.get_if<campaign::AddressSelectionCase>()) {
    name = dns::make_test_name(sel_stem, nonce, {});
    // All records point to unresponsive addresses (no host owns them).
    for (int i = 1; i <= sel->per_family; ++i) {
      world.zone->add_aaaa(name, dns::decoy_v6(i));
      world.zone->add_a(name, dns::decoy_v4(i));
    }
  } else {
    throw std::invalid_argument(
        lazyeye::str_cat("LocalTestbed::run_spec: unsupported case ",
                         campaign::case_name(spec.payload)));
  }

  clients::FetchResult fetch;
  world.client->fetch(name, 443, [&](clients::FetchResult r) {
    fetch = std::move(r);
  });
  world.net->loop().run();
  return analyze(profile, *cap, configured_delay, spec.repetition, fetch);
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

}  // namespace lazyeye::testbed
