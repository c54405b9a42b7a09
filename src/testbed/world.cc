#include "testbed/world.h"

#include <string_view>
#include <utility>

namespace lazyeye::testbed {

const TwoNodeAddresses& two_node_addresses() {
  static const TwoNodeAddresses addresses{
      simnet::IpAddress::must_parse("10.0.0.80"),
      simnet::IpAddress::must_parse("2001:db8::80"),
      simnet::IpAddress::must_parse("10.0.0.2"),
      simnet::IpAddress::must_parse("2001:db8::2")};
  return addresses;
}

namespace {

/// A response body; bodies of up to 24 bytes stay inline in the Buffer.
simnet::Buffer body(std::string_view text) {
  simnet::Buffer out;
  out.append(text.data(), text.size());
  return out;
}

}  // namespace

TwoNodeWorld::TwoNodeWorld(clients::ClientProfile profile,
                           const dns::DnsName& zone_origin,
                           std::uint64_t net_seed, std::uint64_t client_seed,
                           WorldAttach attach) {
  const TwoNodeAddresses& addrs = two_node_addresses();
  simnet::Arena& arena = lease.arena();
  net = arena.create<simnet::Network>(lease.memory(), net_seed);

  server_host = &net->add_host("server");
  server_host->add_address(addrs.server_v4);
  server_host->add_address(addrs.server_v6);
  client_host = &net->add_host("client");
  client_host->add_address(addrs.client_v4);
  client_host->add_address(addrs.client_v6);

  server_tcp = arena.create<transport::TcpStack>(*server_host);
  server_tcp->listen(443,
                     [this](std::uint64_t, const simnet::Endpoint& peer) {
                       last_peer = peer;
                     });
  server_tcp->set_data_handler(
      [this](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        char text[simnet::IpAddress::kMaxText];
        server_tcp->send_data(conn_id,
                              body({text, last_peer.addr.write(text)}));
      });
  server_quic = arena.create<transport::QuicStack>(*server_host);
  server_quic->listen(443);
  server_quic->set_data_handler(
      [this](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        server_quic->send_data(conn_id, body("quic"));
      });

  // The client asks over IPv4, so DNS itself is unaffected by IPv6 shaping.
  auth = arena.create<dns::AuthServer>(*server_host);
  zone = &auth->add_zone(zone_origin);

  if (attach) attach(*this);

  client = arena.create<clients::SimulatedClient>(
      *client_host, std::move(profile),
      dns::StubOptions{.servers = {{addrs.server_v4, 53}}}, client_seed);
  client->reset_state();  // fresh container per cell (§4.3)
}

}  // namespace lazyeye::testbed
