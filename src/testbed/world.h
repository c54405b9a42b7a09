// The two-node world every cell runs in (paper §4.3 (i) and (ii), App. B):
// two directly connected dual-stack nodes. The server runs the web server
// on port 443 (TCP answers with the client's source address, as the paper's
// does; a QUIC listener, which no client dials, answers "quic" and is the
// target of the quic-drop fault) and the authoritative DNS server; the client
// node carries the client. Testbed, conformance and web-tool cells and the
// HE ablation bench all construct this one world in their own storage; they
// differ only in the zone origin, the seeds and what `attach` adds before
// the client exists. The testbed and the conformance checker, which analyse
// the client's packets, arena-create a capture::PacketCapture on
// `client_host` right after construction.
#pragma once

#include <cstdint>

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

struct TwoNodeWorld;

/// Runs once the server's stacks and zone exist and before the client is
/// created (`client` is still null): where a caller adds its records and
/// arena-creates whatever must outlive the client.
using WorldAttach = simnet::InlineFunction<void(TwoNodeWorld&)>;

/// One cell's world, arena-created inside a pooled world lease; callers
/// hold it as `const TwoNodeWorld world{...}`. Destroying it releases the
/// lease: the arena runs finalizers in reverse creation order (whatever the
/// caller created after construction, client, whatever `attach` created,
/// auth, stacks, then the Network itself) and rewinds for the next cell on
/// this worker thread. The server's handlers hold the world's address, so
/// it can be neither copied nor moved.
struct TwoNodeWorld {
  /// Builds a world whose network draws from `net_seed` and whose client
  /// draws from `client_seed`; the client starts from a fresh container
  /// (§4.3).
  TwoNodeWorld(clients::ClientProfile profile, const dns::DnsName& zone_origin,
               std::uint64_t net_seed, std::uint64_t client_seed,
               WorldAttach attach = {});
  TwoNodeWorld(const TwoNodeWorld&) = delete;
  TwoNodeWorld& operator=(const TwoNodeWorld&) = delete;

  simnet::WorldLease lease;
  simnet::Network* net = nullptr;
  simnet::Host* client_host = nullptr;
  simnet::Host* server_host = nullptr;
  transport::TcpStack* server_tcp = nullptr;
  transport::QuicStack* server_quic = nullptr;
  dns::AuthServer* auth = nullptr;
  dns::Zone* zone = nullptr;
  clients::SimulatedClient* client = nullptr;
  /// Peer of the last accepted TCP connection: the web server's answer.
  /// The server's accept handler writes it while the world runs.
  mutable simnet::Endpoint last_peer;
};

/// Seeds of cell `cell` of a testbed or conformance campaign seeded `seed`.
inline std::uint64_t cell_net_seed(std::uint64_t seed, std::uint64_t cell) {
  return seed * 7919 + cell;
}
inline std::uint64_t cell_client_seed(std::uint64_t seed, std::uint64_t cell) {
  return seed * 31 + cell;
}

}  // namespace lazyeye::testbed
