#include "mirror.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "capture/analysis.h"
#include "capture/capture.h"
#include "clients/client.h"
#include "conformance/injector.h"
#include "conformance/rules.h"
#include "conformance/schedule.h"
#include "dns/auth_server.h"
#include "dns/message.h"
#include "dns/test_params.h"
#include "simnet/network.h"
#include "simnet/scenario_pool.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "util/strings.h"

namespace perf {

namespace lz = lazyeye;
using lz::SimTime;
using lz::simnet::Family;
using lz::simnet::IpAddress;

namespace {

double per(double total, double count) { return count > 0 ? total / count : 0.0; }

/// Event-loop and packet-path counters of a finished world.
void harvest_network(lz::simnet::Network& net, LayerLedger& ledger) {
  ledger.events += static_cast<double>(net.loop().processed());
  ledger.wheel_scheduled += static_cast<double>(net.loop().wheel_scheduled());
  ledger.heap_scheduled += static_cast<double>(net.loop().heap_scheduled());
  const lz::simnet::NetworkStats& stats = net.stats();
  ledger.sent += static_cast<double>(stats.packets_sent);
  ledger.delivered += static_cast<double>(stats.packets_delivered);
  ledger.blackholed += static_cast<double>(stats.packets_blackholed);
  ledger.dropped += static_cast<double>(stats.packets_dropped_netem);
}

void harvest_attempts(const std::vector<lz::capture::ConnectionAttempt>& attempts,
                      LayerLedger& ledger) {
  for (const auto& a : attempts) {
    ledger.attempts += 1;
    ledger.syn_retransmits += a.syn_count > 1 ? a.syn_count - 1 : 0;
    ledger.established += a.established ? 1 : 0;
  }
}

void harvest_fetch(const lz::clients::FetchResult& r, LayerLedger& ledger) {
  ledger.fetches += 1;
  ledger.trace_events += static_cast<double>(r.connection.trace.size());
  for (const auto& event : r.connection.trace) {
    ledger.trace_detail_bytes += static_cast<double>(event.detail.size());
  }
}

/// Decodes every DNS payload the client captured, the way the client's
/// codec sees it: timed into a warm scratch message (the thread-local pool's
/// situation) and allocation-counted into a fresh message (what one decode
/// costs the heap when nothing is retained).
void probe_dns(const lz::capture::PacketCapture& capture, std::uint32_t cell,
               Tracer& tracer, LayerLedger& ledger) {
  static lz::dns::DnsMessage warm;
  constexpr int kRepeats = 4;
  Tracer::Scope scope{tracer, "dns.decode_probe", cell};
  for (const auto& cp : capture.packets()) {
    const lz::simnet::Packet& p = cp.packet;
    if (p.proto != lz::simnet::Protocol::kUdp) continue;
    if (!(cp.egress() ? p.dst.port == 53 : p.src.port == 53)) continue;
    const std::span<const std::uint8_t> wire = p.payload.span();
    ledger.messages += 1;

    bool ok = true;
    const std::uint64_t start = now_ns();
    for (int r = 0; r < kRepeats; ++r) {
      ok = lz::dns::DnsMessage::decode_into(wire, warm);
    }
    ledger.decode_ns += static_cast<double>(now_ns() - start) / kRepeats;
    ledger.decode_rejects += ok ? 0 : 1;

    lz::dns::DnsMessage fresh;
    const AllocCount before = thread_allocs();
    lz::dns::DnsMessage::decode_into(wire, fresh);
    const AllocCount after = thread_allocs();
    ledger.decode_allocs += static_cast<double>(after.calls - before.calls);
    const double ratio = static_cast<double>(after.bytes - before.bytes) /
                         static_cast<double>(wire.empty() ? 1 : wire.size());
    if (ratio > ledger.decode_bytes_per_wire_byte_max) {
      ledger.decode_bytes_per_wire_byte_max = ratio;
    }
  }
}

void add_span(const Span& span, double& ns, double* allocs = nullptr) {
  ns += static_cast<double>(span.ns());
  if (allocs != nullptr) *allocs += static_cast<double>(span.allocs.calls);
}

// ---- testbed cell (testbed.cc: build_scenario + run_spec + analyze) --------

struct TestbedWorld {
  lz::simnet::WorldLease lease;
  lz::simnet::Network* net = nullptr;
  lz::simnet::Host* client_host = nullptr;
  lz::simnet::Host* server_host = nullptr;
  lz::transport::TcpStack* server_tcp = nullptr;
  lz::transport::QuicStack* server_quic = nullptr;
  lz::dns::AuthServer* auth = nullptr;
  lz::dns::Zone* zone = nullptr;
  lz::clients::SimulatedClient* client = nullptr;
  lz::capture::PacketCapture* capture = nullptr;
  lz::simnet::Endpoint last_peer;
};

std::unique_ptr<TestbedWorld> build_testbed_world(
    const lz::clients::ClientProfile& profile,
    const lz::testbed::TestbedOptions& options, std::uint64_t run_id) {
  auto w = std::make_unique<TestbedWorld>();
  lz::simnet::Arena& arena = w->lease.arena();
  w->net = arena.create<lz::simnet::Network>(w->lease.memory(),
                                             options.seed * 7919 + run_id);
  static const IpAddress server_v4 = IpAddress::must_parse("10.0.0.80");
  static const IpAddress server_v6 = IpAddress::must_parse("2001:db8::80");
  static const IpAddress client_v4 = IpAddress::must_parse("10.0.0.2");
  static const IpAddress client_v6 = IpAddress::must_parse("2001:db8::2");
  static const lz::dns::DnsName zone_origin =
      lz::dns::DnsName::must_parse("he-test.lab");

  w->server_host = &w->net->add_host("server");
  w->server_host->add_address(server_v4);
  w->server_host->add_address(server_v6);
  w->client_host = &w->net->add_host("client");
  w->client_host->add_address(client_v4);
  w->client_host->add_address(client_v6);

  w->server_tcp = arena.create<lz::transport::TcpStack>(*w->server_host);
  w->server_tcp->listen(443, [wp = w.get()](std::uint64_t,
                                            const lz::simnet::Endpoint& peer) {
    wp->last_peer = peer;
  });
  w->server_tcp->set_data_handler(
      [wp = w.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = wp->last_peer.addr.to_string();
        wp->server_tcp->send_data(
            conn_id, std::vector<std::uint8_t>{body.begin(), body.end()});
      });
  w->server_quic = arena.create<lz::transport::QuicStack>(*w->server_host);
  w->server_quic->listen(443);
  w->server_quic->set_data_handler(
      [wp = w.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = "quic";
        wp->server_quic->send_data(
            conn_id, std::vector<std::uint8_t>{body.begin(), body.end()});
      });

  w->auth = arena.create<lz::dns::AuthServer>(*w->server_host);
  w->zone = &w->auth->add_zone(zone_origin);

  lz::dns::StubOptions stub_options;
  stub_options.servers = {{server_v4, 53}};
  lz::clients::ClientProfile run_profile = profile;
  if (options.dns_timeout_override) {
    run_profile.dns_timeout = *options.dns_timeout_override;
  }
  w->client = arena.create<lz::clients::SimulatedClient>(
      *w->client_host, std::move(run_profile), stub_options,
      options.seed * 31 + run_id);
  w->client->reset_state();
  w->capture = arena.create<lz::capture::PacketCapture>(*w->client_host);
  return w;
}

}  // namespace

lz::testbed::RunRecord mirror_testbed_cell(
    const lz::clients::ClientProfile& profile,
    const lz::testbed::TestbedOptions& options,
    const lz::campaign::ScenarioSpec& spec, std::uint32_t cell,
    Tracer& tracer, LayerLedger& ledger) {
  Tracer::Scope cell_scope{tracer, "mirror.testbed_cell", cell};
  const std::uint64_t run_id = spec.seed;
  const std::string nonce =
      lz::str_format("%llu", static_cast<unsigned long long>(run_id));

  Tracer::Scope build{tracer, "simnet.world_build", cell};
  auto w = build_testbed_world(profile, options, run_id);
  lz::dns::DnsName name;
  SimTime configured_delay{0};
  if (const auto* cad = spec.get_if<lz::campaign::CadCase>()) {
    configured_delay = cad->v6_delay;
    lz::simnet::PacketFilter v6_tcp;
    v6_tcp.family = Family::kIpv6;
    v6_tcp.proto = lz::simnet::Protocol::kTcp;
    w->server_host->egress().add_rule(
        v6_tcp, lz::simnet::NetemSpec::delay_only(cad->v6_delay), "delay v6");
    name = lz::dns::make_test_name(
        lz::dns::DnsName::must_parse("cad.he-test.lab"), nonce, {});
    w->zone->add_a(name, *lz::simnet::Ipv4Address::parse("10.0.0.80"));
    w->zone->add_aaaa(name, *lz::simnet::Ipv6Address::parse("2001:db8::80"));
  } else if (const auto* rd = spec.get_if<lz::campaign::ResolutionDelayCase>()) {
    configured_delay = rd->dns_delay;
    name = lz::dns::make_test_name(
        lz::dns::DnsName::must_parse("rd.he-test.lab"), nonce,
        {{rd->delayed_type, rd->dns_delay}});
    w->zone->add_a(name, *lz::simnet::Ipv4Address::parse("10.0.0.80"));
    w->zone->add_aaaa(name, *lz::simnet::Ipv6Address::parse("2001:db8::80"));
  } else if (const auto* sel = spec.get_if<lz::campaign::AddressSelectionCase>()) {
    name = lz::dns::make_test_name(
        lz::dns::DnsName::must_parse("sel.he-test.lab"), nonce, {});
    for (int i = 1; i <= sel->per_family; ++i) {
      w->zone->add_aaaa(name, *lz::simnet::Ipv6Address::parse(
                                  lz::str_format("2001:db8:dead::%d", i)));
      w->zone->add_a(name, *lz::simnet::Ipv4Address::parse(
                               lz::str_format("10.99.0.%d", i)));
    }
  } else {
    throw std::invalid_argument("mirror_testbed_cell: not a testbed case");
  }
  add_span(build.close(), ledger.build_ns, &ledger.build_allocs);

  lz::clients::FetchResult fetch;
  {
    Tracer::Scope run{tracer, "simnet.run", cell};
    w->client->fetch(name, 443, [&](lz::clients::FetchResult r) {
      fetch = std::move(r);
    });
    w->net->loop().run();
    add_span(run.close(), ledger.run_ns, &ledger.run_allocs);
  }
  harvest_network(*w->net, ledger);
  harvest_fetch(fetch, ledger);

  lz::testbed::RunRecord record;
  std::vector<lz::capture::ConnectionAttempt> attempts;
  {
    Tracer::Scope analysis{tracer, "capture.analysis", cell};
    record.client = profile.display_name();
    record.configured_delay = configured_delay;
    record.repetition = spec.repetition;
    record.fetch_ok = fetch.connection.ok && fetch.response_received;
    record.completion_time = fetch.connection.completed;
    const lz::capture::PacketCapture& cap = *w->capture;
    record.established_family = lz::capture::established_family(cap);
    record.observed_cad = lz::capture::infer_cad(cap);
    const auto exchanges = lz::capture::dns_exchanges(cap);
    record.observed_rd = lz::capture::infer_resolution_delay(cap, exchanges);
    record.a_wait_gap = lz::capture::a_response_to_v6_syn_gap(cap, exchanges);
    for (const auto& ex : exchanges) {
      if (ex.qtype == lz::dns::RrType::kAaaa || ex.qtype == lz::dns::RrType::kA) {
        record.aaaa_query_first = ex.qtype == lz::dns::RrType::kAaaa;
        break;
      }
    }
    attempts = lz::capture::connection_attempts(cap);
    record.v6_addresses_used =
        lz::capture::distinct_destinations(attempts, Family::kIpv6);
    record.v4_addresses_used =
        lz::capture::distinct_destinations(attempts, Family::kIpv4);
    for (const auto& a : attempts) record.attempt_sequence.push_back(a.family());
    add_span(analysis.close(), ledger.analysis_ns, &ledger.analysis_allocs);
  }
  harvest_attempts(attempts, ledger);
  ledger.capture_packets += static_cast<double>(w->capture->size());
  probe_dns(*w->capture, cell, tracer, ledger);

  {
    Tracer::Scope teardown{tracer, "simnet.teardown", cell};
    w.reset();
    add_span(teardown.close(), ledger.teardown_ns);
  }
  ledger.cells += 1;
  return record;
}

// ---- conformance cell (checker.cc: build_world + run_spec) -----------------

namespace {

struct ConformanceWorld {
  lz::simnet::WorldLease lease;
  lz::simnet::Network* net = nullptr;
  lz::simnet::Host* client_host = nullptr;
  lz::simnet::Host* server_host = nullptr;
  lz::transport::TcpStack* server_tcp = nullptr;
  lz::transport::QuicStack* server_quic = nullptr;
  lz::dns::AuthServer* auth = nullptr;
  lz::conformance::FaultInjector* injector = nullptr;
  lz::conformance::ScheduleInjector* schedule_injector = nullptr;
  lz::clients::SimulatedClient* client = nullptr;
  lz::capture::PacketCapture* capture = nullptr;
  lz::dns::DnsName name;
};

std::unique_ptr<ConformanceWorld> build_conformance_world(
    const lz::clients::ClientProfile& profile,
    const lz::conformance::ConformanceOptions& options,
    const lz::conformance::FaultPlan* plan,
    const lz::conformance::FaultSchedule* schedule, std::uint64_t cell_seed) {
  auto w = std::make_unique<ConformanceWorld>();
  lz::simnet::Arena& arena = w->lease.arena();
  w->net = arena.create<lz::simnet::Network>(w->lease.memory(),
                                             options.seed * 7919 + cell_seed);
  w->server_host = &w->net->add_host("server");
  w->server_host->add_address(IpAddress::must_parse("10.0.0.80"));
  w->server_host->add_address(IpAddress::must_parse("2001:db8::80"));
  w->client_host = &w->net->add_host("client");
  w->client_host->add_address(IpAddress::must_parse("10.0.0.2"));
  w->client_host->add_address(IpAddress::must_parse("2001:db8::2"));

  w->server_tcp = arena.create<lz::transport::TcpStack>(*w->server_host);
  w->server_tcp->listen(443, [](std::uint64_t, const lz::simnet::Endpoint&) {});
  w->server_tcp->set_data_handler(
      [wp = w.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = "ok";
        wp->server_tcp->send_data(
            conn_id, std::vector<std::uint8_t>{body.begin(), body.end()});
      });
  w->server_quic = arena.create<lz::transport::QuicStack>(*w->server_host);
  w->server_quic->listen(443);
  w->server_quic->set_data_handler(
      [wp = w.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = "ok";
        wp->server_quic->send_data(
            conn_id, std::vector<std::uint8_t>{body.begin(), body.end()});
      });

  w->auth = arena.create<lz::dns::AuthServer>(*w->server_host);
  lz::dns::Zone& zone = w->auth->add_zone(lz::dns::DnsName::must_parse("conf.lab"));
  const std::string nonce =
      lz::str_format("%llu", static_cast<unsigned long long>(cell_seed));
  w->name = lz::dns::make_test_name(lz::dns::DnsName::must_parse("run.conf.lab"),
                                    nonce, {});
  zone.add_a(w->name, *lz::simnet::Ipv4Address::parse("10.0.0.80"));
  zone.add_aaaa(w->name, *lz::simnet::Ipv6Address::parse("2001:db8::80"));
  for (int i = 1; i <= options.decoys_per_family; ++i) {
    zone.add_a(w->name, *lz::simnet::Ipv4Address::parse(
                            lz::str_format("10.99.0.%d", i)));
    zone.add_aaaa(w->name, *lz::simnet::Ipv6Address::parse(
                               lz::str_format("2001:db8:dead::%d", i)));
  }

  if (plan != nullptr) {
    w->injector = arena.create<lz::conformance::FaultInjector>(*plan);
    w->injector->attach(*w->auth);
    w->injector->attach(*w->server_tcp);
    w->injector->attach(*w->server_quic);
  } else {
    w->schedule_injector = arena.create<lz::conformance::ScheduleInjector>(
        *schedule, w->net->loop());
    w->schedule_injector->attach(*w->auth);
    w->schedule_injector->attach(*w->server_tcp);
    w->schedule_injector->attach(*w->server_quic);
  }

  lz::dns::StubOptions stub_options;
  stub_options.servers = {{IpAddress::must_parse("10.0.0.80"), 53}};
  w->client = arena.create<lz::clients::SimulatedClient>(
      *w->client_host, profile, stub_options, options.seed * 31 + cell_seed);
  w->client->reset_state();
  w->capture = arena.create<lz::capture::PacketCapture>(*w->client_host);
  return w;
}

}  // namespace

lz::conformance::ConformanceRecord mirror_conformance_cell(
    const lz::clients::ClientProfile& profile,
    const lz::conformance::ConformanceOptions& options,
    const lz::campaign::ScenarioSpec& spec, std::uint32_t cell,
    Tracer& tracer, LayerLedger& ledger) {
  Tracer::Scope cell_scope{tracer, "mirror.conformance_cell", cell};
  const lz::conformance::FaultPlan* plan = nullptr;
  const lz::conformance::FaultSchedule* schedule = nullptr;
  int fetches = 1;
  if (const auto* c = spec.get_if<lz::campaign::ConformanceCase>()) {
    plan = &c->fault;
    fetches = c->fetches;
  } else if (const auto* s = spec.get_if<lz::campaign::ScheduleCase>()) {
    schedule = &s->schedule;
    fetches = s->fetches;
  } else {
    throw std::invalid_argument("mirror_conformance_cell: not a fault cell");
  }

  Tracer::Scope build{tracer, "simnet.world_build", cell};
  auto w = build_conformance_world(profile, options, plan, schedule, spec.seed);
  add_span(build.close(), ledger.build_ns, &ledger.build_allocs);

  lz::clients::FetchResult first_fetch;
  lz::clients::FetchResult last_fetch;
  bool first_done = false;
  SimTime first_completed{0};
  {
    Tracer::Scope run{tracer, "simnet.run", cell};
    w->client->fetch(w->name, 443, [&](lz::clients::FetchResult r) {
      harvest_fetch(r, ledger);
      first_fetch = r;
      last_fetch = std::move(r);
      first_done = true;
      first_completed = w->net->loop().now();
      if (fetches >= 2) {
        w->client->fetch(w->name, 443, [&](lz::clients::FetchResult r2) {
          harvest_fetch(r2, ledger);
          last_fetch = std::move(r2);
        });
      }
    });
    w->net->loop().run();
    add_span(run.close(), ledger.run_ns, &ledger.run_allocs);
  }
  harvest_network(*w->net, ledger);

  lz::conformance::RuleContext ctx;
  {
    Tracer::Scope analysis{tracer, "capture.analysis", cell};
    ctx.fetches = fetches;
    ctx.first_fetch_ok =
        first_done && first_fetch.connection.ok && first_fetch.response_received;
    ctx.first_fetch_completed = first_completed;
    ctx.v4_candidates = 1 + options.decoys_per_family;
    ctx.v6_candidates = 1 + options.decoys_per_family;
    const lz::capture::PacketCapture& cap = *w->capture;
    ctx.dns = lz::capture::dns_exchanges(cap);
    ctx.attempts = lz::capture::connection_attempts(cap);
    ctx.established = lz::capture::established_family(cap);
    ctx.established_time = lz::capture::first_established_time(cap);
    ctx.first_a_response =
        lz::capture::first_response_time(ctx.dns, lz::dns::RrType::kA);
    ctx.first_aaaa_response =
        lz::capture::first_response_time(ctx.dns, lz::dns::RrType::kAaaa);
    ctx.first_v4_syn = lz::capture::first_syn_time(cap, Family::kIpv4);
    ctx.first_v6_syn = lz::capture::first_syn_time(cap, Family::kIpv6);
    add_span(analysis.close(), ledger.analysis_ns, &ledger.analysis_allocs);
  }
  harvest_attempts(ctx.attempts, ledger);
  ledger.capture_packets += static_cast<double>(w->capture->size());

  lz::conformance::ConformanceRecord record;
  {
    Tracer::Scope rules{tracer, "conformance.rules", cell};
    record.client = profile.display_name();
    if (plan != nullptr) record.fault = *plan;
    if (schedule != nullptr) record.schedule = *schedule;
    record.fetches = fetches;
    record.fetch_ok = last_fetch.connection.ok && last_fetch.response_received;
    record.first_fetch_ok = ctx.first_fetch_ok;
    record.verdicts = lz::conformance::evaluate_rules(ctx);
    add_span(rules.close(), ledger.rules_ns, &ledger.rules_allocs);
  }
  ledger.rule_cells += 1;
  ledger.violations += record.violations();
  probe_dns(*w->capture, cell, tracer, ledger);

  {
    Tracer::Scope teardown{tracer, "simnet.teardown", cell};
    w.reset();
    add_span(teardown.close(), ledger.teardown_ns);
  }
  ledger.cells += 1;
  return record;
}

void LayerLedger::emit(Report& report) const {
  report.metric("trace.mirror_cells", cells);
  report.metric("simnet.world_build_us", per(build_ns, cells) / 1e3);
  report.metric("simnet.world_build_allocs", per(build_allocs, cells));
  report.metric("simnet.teardown_us", per(teardown_ns, cells) / 1e3);
  report.metric("simnet.run_us", per(run_ns, cells) / 1e3);
  report.metric("simnet.events_per_cell", per(events, cells));
  report.metric("simnet.ns_per_event", per(run_ns, events));
  report.metric("simnet.wheel_scheduled_per_cell", per(wheel_scheduled, cells));
  report.metric("simnet.heap_scheduled_per_cell", per(heap_scheduled, cells));
  report.metric("simnet.run_allocs_per_cell", per(run_allocs, cells));
  report.metric("simnet.packets_sent_per_cell", per(sent, cells));
  report.metric("simnet.packets_delivered_per_cell", per(delivered, cells));
  report.metric("simnet.packets_blackholed_per_cell", per(blackholed, cells));
  report.metric("simnet.packets_dropped_per_cell", per(dropped, cells));
  report.metric("dns.messages_per_cell", per(messages, cells));
  report.metric("dns.decode_ns_per_msg", per(decode_ns, messages));
  report.metric("dns.decode_allocs_per_msg", per(decode_allocs, messages));
  report.metric("dns.decode_alloc_bytes_per_wire_byte_max",
                decode_bytes_per_wire_byte_max);
  report.metric("dns.decode_reject_share", per(decode_rejects, messages));
  report.metric("transport.attempts_per_cell", per(attempts, cells));
  report.metric("transport.syn_retransmits_per_cell", per(syn_retransmits, cells));
  report.metric("transport.established_share", per(established, attempts));
  report.metric("he.trace_events_per_fetch", per(trace_events, fetches));
  report.metric("he.trace_detail_bytes_per_fetch",
                per(trace_detail_bytes, fetches));
  report.metric("capture.packets_per_cell", per(capture_packets, cells));
  report.metric("capture.analysis_us_per_cell", per(analysis_ns, cells) / 1e3);
  report.metric("capture.analysis_allocs_per_cell", per(analysis_allocs, cells));
  report.metric("conformance.rules_us_per_cell", per(rules_ns, rule_cells) / 1e3);
  report.metric("conformance.rules_allocs_per_cell", per(rules_allocs, rule_cells));
  report.metric("conformance.violations_per_cell", per(violations, rule_cells));
}

}  // namespace perf
