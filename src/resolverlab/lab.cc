#include "resolverlab/lab.h"

#include <algorithm>
#include <map>

#include "campaign/runner.h"
#include "dns/auth_server.h"
#include "dns/recursive_resolver.h"
#include "simnet/network.h"
#include "util/strings.h"

namespace lazyeye::resolverlab {

using dns::DnsName;
using simnet::Family;
using simnet::IpAddress;

LabConfig LabConfig::paper_grid() {
  LabConfig config;
  // One millisecond below each distinctive client timeout in Table 3 plus
  // coverage above them (to force fallback and count per-family packets).
  config.delay_grid = {lazyeye::ms(0),    lazyeye::ms(49),   lazyeye::ms(100),
                       lazyeye::ms(199),  lazyeye::ms(249),  lazyeye::ms(299),
                       lazyeye::ms(375),  lazyeye::ms(399),  lazyeye::ms(499),
                       lazyeye::ms(599),  lazyeye::ms(799),  lazyeye::ms(1249),
                       lazyeye::ms(1500), lazyeye::ms(2000)};
  config.repetitions = 9;
  return config;
}

namespace {

struct LabRun {
  // Lease first: released last, so the arena reset (which destroys the
  // arena-created servers and resolver, then the Network) runs after every
  // raw pointer below is dead.
  simnet::WorldLease lease;
  simnet::Network* net = nullptr;
  simnet::Host* auth_host = nullptr;
  dns::AuthServer* root = nullptr;
  dns::AuthServer* tld = nullptr;
  dns::AuthServer* auth = nullptr;
  dns::RecursiveResolver* resolver = nullptr;
  DnsName zone;
  DnsName ns_name;
  DnsName qname;
};

/// Builds the delegation tree for one measurement run. Unique zone apex and
/// NS names per (delay, repetition) defeat caching, exactly like §4.2.
std::unique_ptr<LabRun> build_run(const resolvers::ServiceProfile& service,
                                  SimTime v6_delay, int delay_index, int rep,
                                  std::uint64_t seed, bool v6_only) {
  auto run = std::make_unique<LabRun>();
  simnet::Arena& arena = run->lease.arena();
  run->net = arena.create<simnet::Network>(run->lease.memory(), seed);
  simnet::Network& net = *run->net;

  simnet::Host& root_host = net.add_host("root");
  root_host.add_address(IpAddress::must_parse("10.0.0.1"));
  root_host.add_address(IpAddress::must_parse("2001:db8::1"));
  simnet::Host& tld_host = net.add_host("tld");
  tld_host.add_address(IpAddress::must_parse("10.0.0.2"));
  tld_host.add_address(IpAddress::must_parse("2001:db8::2"));
  simnet::Host& auth_host = net.add_host("auth");
  run->auth_host = &auth_host;
  const auto auth_v4 = IpAddress::must_parse("10.0.1.1");
  const auto auth_v6 = IpAddress::must_parse("2001:db8:1::1");
  if (!v6_only) auth_host.add_address(auth_v4);
  auth_host.add_address(auth_v6);
  simnet::Host& resolver_host = net.add_host("resolver");
  resolver_host.add_address(IpAddress::must_parse("10.0.9.9"));
  resolver_host.add_address(IpAddress::must_parse("2001:db8:9::9"));

  // Traffic shaping towards the auth server's IPv6 address (§4.2: shaping
  // on the IP addresses for CAD measurements).
  if (v6_delay.count() > 0) {
    net.qdisc().add_rule(simnet::PacketFilter::to_address(auth_v6),
                         simnet::NetemSpec::delay_only(v6_delay),
                         "v6 delay to auth");
  }

  run->zone = DnsName::must_parse(
      lazyeye::str_format("z%dr%d.lab", delay_index, rep));
  run->ns_name = run->zone.prepend("ns1");
  run->qname = run->zone.prepend("www");

  run->root = arena.create<dns::AuthServer>(root_host);
  dns::Zone& root_zone = run->root->add_zone(DnsName{});
  root_zone.add_ns(DnsName::must_parse("lab"), DnsName::must_parse("ns.lab"));
  root_zone.add(dns::ResourceRecord::a(DnsName::must_parse("ns.lab"),
                                       *simnet::Ipv4Address::parse("10.0.0.2")));
  root_zone.add(dns::ResourceRecord::aaaa(
      DnsName::must_parse("ns.lab"), *simnet::Ipv6Address::parse("2001:db8::2")));

  run->tld = arena.create<dns::AuthServer>(tld_host);
  dns::Zone& lab_zone = run->tld->add_zone(DnsName::must_parse("lab"));
  lab_zone.add_ns(DnsName::must_parse("lab"), DnsName::must_parse("ns.lab"));
  lab_zone.add_a(DnsName::must_parse("ns.lab"),
                 *simnet::Ipv4Address::parse("10.0.0.2"));
  lab_zone.add_aaaa(DnsName::must_parse("ns.lab"),
                    *simnet::Ipv6Address::parse("2001:db8::2"));
  lab_zone.add_ns(run->zone, run->ns_name);
  if (!v6_only) {
    lab_zone.add(dns::ResourceRecord::a(run->ns_name,
                                        *simnet::Ipv4Address::parse("10.0.1.1")));
  }
  lab_zone.add(dns::ResourceRecord::aaaa(
      run->ns_name, *simnet::Ipv6Address::parse("2001:db8:1::1")));

  run->auth = arena.create<dns::AuthServer>(auth_host);
  dns::Zone& zone = run->auth->add_zone(run->zone);
  zone.add_ns(run->zone, run->ns_name);
  if (!v6_only) {
    zone.add_a(run->ns_name, *simnet::Ipv4Address::parse("10.0.1.1"));
  }
  zone.add_aaaa(run->ns_name, *simnet::Ipv6Address::parse("2001:db8:1::1"));
  zone.add_a(run->qname, *simnet::Ipv4Address::parse("10.0.1.80"));

  run->resolver = arena.create<dns::RecursiveResolver>(
      resolver_host, service.engine,
      std::vector<IpAddress>{IpAddress::must_parse("10.0.0.1"),
                             IpAddress::must_parse("2001:db8::1")});
  return run;
}

RunObservation observe(LabRun& run, SimTime delay, int rep, bool resolved,
                       SimTime completed) {
  RunObservation obs;
  obs.configured_delay = delay;
  obs.repetition = rep;
  obs.resolved = resolved;
  obs.completed = completed;

  // Ordering uses log *indices*: back-to-back queries share a timestamp but
  // the capture preserves wire order.
  std::optional<std::size_t> first_aaaa_ns;
  std::optional<std::size_t> first_a_ns;
  std::optional<std::size_t> first_main;
  std::optional<Family> aaaa_ns_family;
  std::optional<Family> a_ns_family;
  std::optional<Family> last_main_family;
  const auto& log = run.auth->query_log();
  std::optional<SimTime> earliest_send;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& entry = log[i];
    if (entry.qname == run.qname) {
      if (entry.family == Family::kIpv6) {
        ++obs.v6_main_queries;
      } else {
        ++obs.v4_main_queries;
      }
      if (!first_main) first_main = i;
      // The lab knows the shaping it applied, so it can reconstruct the
      // *send* time of each arriving query: delayed IPv6 queries may land
      // after a later-sent IPv4 one.
      const SimTime send_time =
          entry.time - (entry.family == Family::kIpv6 ? delay : SimTime{0});
      if (!earliest_send || send_time < *earliest_send) {
        earliest_send = send_time;
        obs.first_query_v6 = entry.family == Family::kIpv6;
      }
      // Only queries that arrived before the resolver finished can have
      // produced the answer it used.
      if (entry.time <= completed || !resolved) {
        last_main_family = entry.family;
      }
    } else if (entry.qname == run.ns_name) {
      if (entry.qtype == dns::RrType::kAaaa) {
        obs.aaaa_ns_seen = true;
        if (!first_aaaa_ns) {
          first_aaaa_ns = i;
          aaaa_ns_family = entry.family;
        }
      } else if (entry.qtype == dns::RrType::kA) {
        obs.a_ns_seen = true;
        if (!first_a_ns) {
          first_a_ns = i;
          a_ns_family = entry.family;
        }
      }
    }
  }
  if (first_aaaa_ns && first_a_ns) {
    obs.aaaa_before_a = *first_aaaa_ns < *first_a_ns;
    // "Parallel queries on IPv4 and IPv6" (Table 3 footnote 1): the two
    // NS-name queries rode different transport families.
    obs.ns_queries_parallel = aaaa_ns_family && a_ns_family &&
                              *aaaa_ns_family != *a_ns_family;
  }
  if (first_aaaa_ns && first_main) {
    obs.aaaa_before_main = *first_aaaa_ns < *first_main;
  }
  obs.answer_via_v6 =
      resolved && last_main_family && *last_main_family == Family::kIpv6;
  return obs;
}

}  // namespace

bool check_ipv6_only_capability(const resolvers::ServiceProfile& service,
                                std::uint64_t seed) {
  auto run = build_run(service, SimTime{0}, 0, 0, seed, /*v6_only=*/true);
  bool resolved = false;
  run->resolver->resolve(run->qname, dns::RrType::kA,
                         [&resolved](const dns::QueryOutcome& out) {
                           resolved = out.ok;
                         });
  run->net->loop().run();
  return resolved;
}

namespace {

/// Pure per-index cell builder shared by the eager and lazy generators.
/// The seed sequence is the one the original serial loop consumed:
/// config.seed + 1, +2, ... in (delay-major, repetition-minor) order.
campaign::ScenarioSpec resolver_cell_at(const std::string& service_name,
                                        const std::vector<SimTime>& grid,
                                        int repetitions,
                                        std::uint64_t config_seed,
                                        std::size_t cell) {
  const std::size_t di = cell / static_cast<std::size_t>(repetitions);
  const int rep = static_cast<int>(cell % static_cast<std::size_t>(repetitions));
  campaign::ScenarioSpec spec;
  spec.id = cell;
  spec.seed = config_seed + cell + 1;
  spec.repetition = rep;
  spec.grid_index = static_cast<int>(di);
  spec.payload = campaign::ResolverCellCase{service_name, grid[di]};
  spec.label = lazyeye::str_format("%s %s rep%d", service_name.c_str(),
                                   format_duration(grid[di]).c_str(), rep);
  return spec;
}

}  // namespace

campaign::SpecStream cell_spec_stream(const resolvers::ServiceProfile& service,
                                      const LabConfig& config) {
  const std::size_t total = config.delay_grid.size() *
                            static_cast<std::size_t>(config.repetitions);
  return campaign::SpecStream{
      total, [name = service.service, grid = config.delay_grid,
              repetitions = config.repetitions, seed = config.seed](
                 std::size_t cell) {
        return resolver_cell_at(name, grid, repetitions, seed, cell);
      }};
}

campaign::SpecStream cross_service_cell_spec_stream(
    const std::vector<resolvers::ServiceProfile>& services,
    const LabConfig& config) {
  const std::size_t per_service = config.delay_grid.size() *
                                  static_cast<std::size_t>(config.repetitions);
  std::vector<std::string> names;
  names.reserve(services.size());
  for (const auto& service : services) names.push_back(service.service);
  return campaign::SpecStream{
      per_service * names.size(),
      [names = std::move(names), grid = config.delay_grid,
       repetitions = config.repetitions, seed = config.seed,
       per_service](std::size_t i) {
        // Service-major; each service's block keeps its solo seed sequence
        // (different services run different engines, so re-using the
        // sequence across blocks is what makes the joint matrix reproduce
        // every solo campaign exactly); ids dense across the joint matrix.
        campaign::ScenarioSpec spec =
            resolver_cell_at(names[i / per_service], grid, repetitions, seed,
                             i % per_service);
        spec.id = i;
        return spec;
      }};
}

RunObservation run_cell(const resolvers::ServiceProfile& service,
                        const campaign::ScenarioSpec& spec) {
  // Throws bad_variant_access on a non-resolver cell: routing a foreign
  // case here is a programming error, not a measurement outcome.
  const auto& cell = std::get<campaign::ResolverCellCase>(spec.payload);
  auto run = build_run(service, cell.v6_delay, spec.grid_index,
                       spec.repetition, spec.seed, /*v6_only=*/false);
  bool resolved = false;
  SimTime completed{0};
  run->resolver->resolve(run->qname, dns::RrType::kA,
                         [&resolved, &completed,
                          net = run->net](const dns::QueryOutcome& out) {
                           resolved = out.ok;
                           completed = net->loop().now();
                         });
  run->net->loop().run();
  return observe(*run, cell.v6_delay, spec.repetition, resolved, completed);
}

ServiceMetrics aggregate_service(const resolvers::ServiceProfile& service,
                                 std::vector<RunObservation> observations) {
  ServiceMetrics metrics;
  metrics.service = service.service;

  std::map<std::int64_t, std::pair<int, int>> v6_success_by_delay;  // (v6, n)
  int first_query_v6 = 0;
  int first_query_total = 0;

  for (RunObservation& obs : observations) {
    if (obs.v6_main_queries + obs.v4_main_queries > 0) {
      ++first_query_total;
      if (obs.first_query_v6) ++first_query_v6;
    }
    // Max-IPv6-delay statistics condition on the runs where the resolver
    // chose IPv6 in the first place (otherwise services with a low IPv6
    // share could never reach a majority at any delay).
    if (obs.first_query_v6) {
      auto& bucket = v6_success_by_delay[obs.configured_delay.count()];
      bucket.second += 1;
      if (obs.answer_via_v6) bucket.first += 1;
    }
    metrics.max_ipv6_packets =
        std::max(metrics.max_ipv6_packets, obs.v6_main_queries);
    metrics.runs.push_back(std::move(obs));
  }

  // ---- Aggregation ----------------------------------------------------------
  metrics.ipv6_share =
      first_query_total == 0
          ? 0.0
          : static_cast<double>(first_query_v6) / first_query_total;

  // Largest delay where the majority of repetitions were answered over v6.
  for (const auto& [delay_ns, counts] : v6_success_by_delay) {
    if (counts.second == 0) continue;
    if (counts.first * 2 > counts.second) {
      const SimTime d{delay_ns};
      if (!metrics.max_ipv6_delay || d > *metrics.max_ipv6_delay) {
        metrics.max_ipv6_delay = d;
      }
    }
  }

  // AAAA Query column classification (majority vote across runs).
  int before_a = 0;
  int after_a = 0;
  int either_or = 0;
  int after_main = 0;
  int parallel = 0;
  int with_ns_queries = 0;
  for (const auto& obs : metrics.runs) {
    if (!obs.aaaa_ns_seen && !obs.a_ns_seen) continue;
    ++with_ns_queries;
    if (obs.ns_queries_parallel) ++parallel;
    if (obs.aaaa_ns_seen && !obs.aaaa_before_main) {
      // The AAAA query only went out after the auth server was already
      // contacted (Google's deferred behaviour).
      ++after_main;
    } else if (obs.aaaa_ns_seen != obs.a_ns_seen) {
      // Exactly one of the two types, before the main query (Knot).
      ++either_or;
    } else if (obs.aaaa_ns_seen && obs.a_ns_seen) {
      if (obs.aaaa_before_a) {
        ++before_a;
      } else {
        ++after_a;
      }
    }
  }
  if (with_ns_queries > 0) {
    metrics.aaaa_order_known = true;
    if (after_main * 2 > with_ns_queries) {
      metrics.aaaa_order = resolvers::AaaaOrderClass::kAfterAuthQuery;
    } else if (either_or * 2 > with_ns_queries) {
      metrics.aaaa_order = resolvers::AaaaOrderClass::kEitherOr;
    } else if (before_a >= after_a) {
      metrics.aaaa_order = resolvers::AaaaOrderClass::kBeforeA;
    } else {
      metrics.aaaa_order = resolvers::AaaaOrderClass::kAfterA;
    }
    metrics.delay_unmeasurable = parallel * 2 > with_ns_queries;
  }
  return metrics;
}

ServiceMetrics measure_service(const resolvers::ServiceProfile& service,
                               const LabConfig& config) {
  std::vector<ServiceMetrics> rows = measure_services({service}, config);
  return std::move(rows.front());
}

std::vector<ServiceMetrics> measure_services(
    const std::vector<resolvers::ServiceProfile>& services,
    const LabConfig& config) {
  // One joint matrix, one worker pool: every service's cells interleave
  // freely across workers. Each cell is an isolated world seeded from its
  // spec, and the sink streams observations in spec order (service-major),
  // so per-service aggregation is worker-count independent and identical
  // to running each service's campaign alone. The matrix is lazy: cells are
  // generated as workers claim them, never materialised as a vector.
  const campaign::SpecStream specs =
      cross_service_cell_spec_stream(services, config);

  campaign::Registry<RunObservation> registry;
  register_executor(registry, services);

  std::vector<std::vector<RunObservation>> per_service(services.size());
  const std::size_t cells_per_service =
      services.empty() ? 0 : specs.size() / services.size();
  for (std::size_t s = 0; s < services.size(); ++s) {
    per_service[s].reserve(cells_per_service);
  }
  campaign::CallbackSink<RunObservation> sink{
      [&](const campaign::ScenarioSpec& spec, RunObservation obs) {
        // Spec order is service-major, so the service block index is just
        // id / block size.
        per_service[spec.id / cells_per_service].push_back(std::move(obs));
      }};

  campaign::RunnerOptions runner_options;
  runner_options.workers = config.workers;
  registry.run(campaign::CampaignRunner{runner_options}, specs, sink);

  std::vector<ServiceMetrics> rows;
  rows.reserve(services.size());
  for (std::size_t s = 0; s < services.size(); ++s) {
    rows.push_back(aggregate_service(services[s], std::move(per_service[s])));
  }
  return rows;
}

}  // namespace lazyeye::resolverlab
