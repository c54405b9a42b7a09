// SimulatedClient: binds a ClientProfile to a simulated host — owns the
// TCP stack, stub resolver and HE engine, and performs black-box "fetches"
// (connect + one request/response round trip), which is what the testbed
// and the web tool drive.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <memory_resource>

#include "clients/profiles.h"
#include "dns/stub_resolver.h"
#include "he/engine.h"
#include "transport/tcp.h"
#include "util/rng.h"

namespace lazyeye::clients {

struct FetchResult {
  he::HeResult connection;
  bool response_received = false;
  std::vector<std::uint8_t> response;  // e.g. the web tool's source-addr echo

  std::string response_text() const {
    return std::string{response.begin(), response.end()};
  }
};

class SimulatedClient {
 public:
  // By value so completed fetches move the result (trace included) to the
  // caller; handlers taking `const FetchResult&` still bind unchanged.
  using FetchHandler = std::function<void(FetchResult)>;

  /// `resolver` configures where the client's stub resolver points.
  SimulatedClient(simnet::Host& host, ClientProfile profile,
                  dns::StubOptions resolver, std::uint64_t seed = 1);

  const ClientProfile& profile() const { return profile_; }

  /// Emulates real-world ("web") conditions: Safari's dynamic CAD engages
  /// via RTT history instead of the 2 s lab default.
  void set_web_conditions(bool web) { web_conditions_ = web; }

  /// Container-style reset between test runs (§4.3: fresh client state):
  /// clears the HE outcome cache and RTT history.
  void reset_state();

  /// Full fetch: Happy Eyeballs connect, then one request and one response
  /// over the winning connection. The handler runs once.
  void fetch(const dns::DnsName& hostname, std::uint16_t port,
             FetchHandler handler);

 private:
  void configure_session_options();
  /// The HE outcome of fetch `fetch_id`: fails the fetch or sends its
  /// request.
  void on_connected(std::uint64_t fetch_id, he::HeResult result);

  simnet::Host& host_;
  ClientProfile profile_;
  Rng rng_;
  // Direct members (declaration order = construction order the engine
  // needs); an arena-created client carries them inline, so building one
  // costs no separate heap blocks.
  transport::TcpStack tcp_;
  dns::StubResolver stub_;
  he::HappyEyeballsEngine engine_;
  bool web_conditions_ = false;

  struct PendingFetch {
    FetchHandler handler;
    he::HeResult connection;
    simnet::TimerId response_timer;
  };
  // Handlers of fetches still connecting, by fetch id; the engine's
  // completion callable carries only the id, so it fits std::function's
  // small buffer. Nodes from the world's arena.
  std::pmr::map<std::uint64_t, FetchHandler> connecting_;
  std::uint64_t next_fetch_id_ = 1;
  // by connection id; nodes from the world's arena
  std::pmr::map<std::uint64_t, PendingFetch> pending_;
};

}  // namespace lazyeye::clients
