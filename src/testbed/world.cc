#include "testbed/world.h"

#include <string>
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

std::unique_ptr<TwoNodeWorld> build_two_node_world(
    clients::ClientProfile profile, const dns::DnsName& zone_origin,
    std::uint64_t net_seed, std::uint64_t client_seed, WorldAttach attach) {
  const TwoNodeAddresses& addrs = two_node_addresses();
  auto w = std::make_unique<TwoNodeWorld>();
  simnet::Arena& arena = w->lease.arena();
  w->net = arena.create<simnet::Network>(w->lease.memory(), net_seed);

  w->server_host = &w->net->add_host("server");
  w->server_host->add_address(addrs.server_v4);
  w->server_host->add_address(addrs.server_v6);
  w->client_host = &w->net->add_host("client");
  w->client_host->add_address(addrs.client_v4);
  w->client_host->add_address(addrs.client_v6);

  w->server_tcp = arena.create<transport::TcpStack>(*w->server_host);
  w->server_tcp->listen(
      443, [wp = w.get()](std::uint64_t, const simnet::Endpoint& peer) {
        wp->last_peer = peer;
      });
  w->server_tcp->set_data_handler(
      [wp = w.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        std::string text;  // an address fits the short-string buffer
        wp->last_peer.addr.append_to(text);
        wp->server_tcp->send_data(conn_id, body(text));
      });
  w->server_quic = arena.create<transport::QuicStack>(*w->server_host);
  w->server_quic->listen(443);
  w->server_quic->set_data_handler(
      [wp = w.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        wp->server_quic->send_data(conn_id, body("quic"));
      });

  // The client asks over IPv4, so DNS itself is unaffected by IPv6 shaping.
  w->auth = arena.create<dns::AuthServer>(*w->server_host);
  w->zone = &w->auth->add_zone(zone_origin);

  if (attach) attach(*w);

  w->client = arena.create<clients::SimulatedClient>(
      *w->client_host, std::move(profile),
      dns::StubOptions{.servers = {{addrs.server_v4, 53}}}, client_seed);
  w->client->reset_state();  // fresh container per cell (§4.3)
  return w;
}

}  // namespace lazyeye::testbed
