// The two-node world every cell runs in (paper §4.3 (i), App. B): two
// directly connected dual-stack nodes. The server runs the web server on
// port 443 (TCP answers with the client's source address, as the paper's
// does; QUIC answers "quic") and the authoritative DNS server; the client
// node carries the client and a packet capture. Testbed cells and
// conformance cells both build this one world; they differ only in the zone
// origin and in what `attach` adds before the client exists.
#pragma once

#include <cstdint>
#include <memory>

#include "capture/capture.h"
#include "clients/client.h"
#include "dns/auth_server.h"
#include "simnet/inline_callback.h"
#include "simnet/network.h"
#include "simnet/scenario_pool.h"
#include "transport/quic.h"
#include "transport/tcp.h"

namespace lazyeye::testbed {

/// The world's fixed addresses, parsed once per process.
struct TwoNodeAddresses {
  simnet::IpAddress server_v4;
  simnet::IpAddress server_v6;
  simnet::IpAddress client_v4;
  simnet::IpAddress client_v6;
};
const TwoNodeAddresses& two_node_addresses();

/// One cell's world, arena-created inside a pooled world lease. Destroying
/// it releases the lease: the arena runs finalizers in reverse creation
/// order (capture, client, whatever `attach` created, auth, stacks, then
/// the Network itself) and rewinds for the next cell on this worker thread.
struct TwoNodeWorld {
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
  /// Peer of the last accepted TCP connection: the web server's answer.
  simnet::Endpoint last_peer;
};

/// Runs once the server's stacks and zone exist and before the client is
/// created (`client` is still null): where a caller adds its records and
/// arena-creates whatever must outlive the client.
using WorldAttach = simnet::InlineFunction<void(TwoNodeWorld&)>;

/// Builds cell `cell` of the campaign seeded `seed`: the network draws from
/// seed*7919+cell, the client from seed*31+cell, and the client starts from
/// a fresh container (§4.3).
std::unique_ptr<TwoNodeWorld> build_two_node_world(
    clients::ClientProfile profile, const dns::DnsName& zone_origin,
    std::uint64_t seed, std::uint64_t cell, WorldAttach attach = {});

}  // namespace lazyeye::testbed
