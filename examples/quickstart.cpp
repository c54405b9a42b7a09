// Quickstart: build a tiny dual-stack world, run one Happy Eyeballs
// connection with RFC 8305 defaults, and print the engine's event trace.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "dns/auth_server.h"
#include "he/engine.h"
#include "simnet/network.h"

using namespace lazyeye;

int main() {
  // 1. A simulated network with a client, a dual-stack web server, and a
  //    DNS server (all virtual time; the run takes microseconds of CPU).
  simnet::Network net{/*seed=*/1};
  simnet::Host& client_host = net.add_host("client");
  client_host.add_address(simnet::IpAddress::must_parse("10.0.0.2"));
  client_host.add_address(simnet::IpAddress::must_parse("2001:db8::2"));
  simnet::Host& server_host = net.add_host("server");
  server_host.add_address(simnet::IpAddress::must_parse("10.0.0.80"));
  server_host.add_address(simnet::IpAddress::must_parse("2001:db8::80"));

  // 2. Services: a TCP listener on :443 and an authoritative DNS zone.
  transport::TcpStack server_tcp{server_host};
  server_tcp.listen(443);
  dns::AuthServer auth{server_host};
  dns::Zone& zone = auth.add_zone(dns::DnsName::must_parse("example.lab"));
  const auto host = dns::DnsName::must_parse("www.example.lab");
  zone.add_a(host, *simnet::Ipv4Address::parse("10.0.0.80"));
  zone.add_aaaa(host, *simnet::Ipv6Address::parse("2001:db8::80"));

  // 3. Make IPv6 a bit painful: 400 ms extra delay on the server's v6 path.
  server_host.egress().add_rule(
      simnet::PacketFilter::for_family(simnet::Family::kIpv6),
      simnet::NetemSpec::delay_only(ms(400)), "broken-ish v6");

  // 4. A Happy Eyeballs client with RFC 8305 defaults (CAD 250 ms, RD 50 ms).
  dns::StubOptions stub_options;
  stub_options.servers = {{simnet::IpAddress::must_parse("10.0.0.80"), 53}};
  dns::StubResolver stub{client_host, stub_options};
  transport::TcpStack client_tcp{client_host};
  he::HappyEyeballsEngine engine{client_host, stub, client_tcp};
  engine.set_options(he::HeOptions::rfc8305());

  engine.connect(host, 443, [](const he::HeResult& result) {
    std::printf("connected: %s via %s after %s\n\n",
                result.ok ? "yes" : "no",
                result.ok ? result.remote.to_string().c_str() : "-",
                format_duration(result.elapsed()).c_str());
    std::printf("%-12s %-18s %s\n", "time", "event", "detail");
    for (const auto& event : result.trace) {
      std::printf("%-12s %-18s %s\n", format_duration(event.time).c_str(),
                  he::he_event_type_name(event.type),
                  event.detail.text().c_str());
    }
  });

  net.loop().run();
  return 0;
}
