// TCP and QUIC handshake model tests: establishment, RTO/retransmission,
// RST/refusal, blackhole timeouts, aborts, data transfer; the shared
// connection table's tuple lookup; connect handlers that abort siblings and
// reconnect; and stack teardown (no timer or UDP binding outlives a stack).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simnet/network.h"
#include "transport/quic.h"
#include "transport/tcp.h"

namespace lazyeye::transport {
namespace {

using simnet::IpAddress;

struct TransportFixture : ::testing::Test {
  TransportFixture()
      : net{3}, client_host{net.add_host("client")},
        server_host{net.add_host("server")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.1"));
    client_host.add_address(IpAddress::must_parse("2001:db8::1"));
    server_host.add_address(IpAddress::must_parse("10.0.0.2"));
    server_host.add_address(IpAddress::must_parse("2001:db8::2"));
    client = std::make_unique<TcpStack>(client_host);
    server = std::make_unique<TcpStack>(server_host);
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
  std::unique_ptr<TcpStack> client;
  std::unique_ptr<TcpStack> server;
};

// The HE engine's loser-abort pattern: the winner's connect handler aborts
// a sibling attempt and opens a new one from inside the callback. Every
// handler must fire exactly once. The loser targets an unowned address, so
// it is still in flight when the winner lands.
template <typename Stack>
void expect_abort_sibling_and_reconnect(simnet::Network& net, Stack& stack) {
  std::map<std::string, int> fired;
  std::map<std::string, ConnectResult> results;
  auto record = [&](const std::string& name) {
    return [&, name](const ConnectResult& r) {
      ++fired[name];
      results[name] = r;
    };
  };
  // QUIC attempts take no options; TCP ones take the defaults.
  const auto open = [&stack](const simnet::Endpoint& to, auto handler) {
    if constexpr (std::is_same_v<Stack, QuicStack>) {
      return stack.connect(to, std::move(handler));
    } else {
      return stack.connect(to, {}, std::move(handler));
    }
  };
  const auto loser =
      open({IpAddress::must_parse("10.0.0.99"), 443}, record("loser"));
  open({IpAddress::must_parse("10.0.0.2"), 443}, [&](const ConnectResult& r) {
    record("winner")(r);
    stack.abort(loser);
    open({IpAddress::must_parse("2001:db8::2"), 443}, record("reopened"));
  });
  net.loop().run();
  EXPECT_EQ(fired, (std::map<std::string, int>{
                       {"loser", 1}, {"reopened", 1}, {"winner", 1}}));
  EXPECT_EQ(results["loser"].error, "cancelled");
  EXPECT_TRUE(results["winner"].ok);
  EXPECT_TRUE(results["reopened"].ok);
}

TEST_F(TransportFixture, HandshakeCompletes) {
  server->listen(443);
  ConnectResult result;
  client->connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                  [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.proto, TransportProtocol::kTcp);
  EXPECT_EQ(result.handshake_time(), 2 * net.base_delay());
  EXPECT_EQ(result.remote.port, 443);
  EXPECT_NE(result.connection_id, 0u);
}

TEST_F(TransportFixture, Ipv6Handshake) {
  server->listen(443);
  ConnectResult result;
  client->connect({IpAddress::must_parse("2001:db8::2"), 443}, {},
                  [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.family(), simnet::Family::kIpv6);
}

TEST_F(TransportFixture, AcceptHandlerFires) {
  std::uint64_t accepted_conn = 0;
  simnet::Endpoint accepted_peer;
  server->listen(443, [&](std::uint64_t conn_id, const simnet::Endpoint& peer) {
    accepted_conn = conn_id;
    accepted_peer = peer;
  });
  client->connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                  [](const ConnectResult&) {});
  net.loop().run();
  EXPECT_NE(accepted_conn, 0u);
  EXPECT_EQ(accepted_peer.addr.to_string(), "10.0.0.1");
}

TEST_F(TransportFixture, RefusedOnClosedPort) {
  ConnectResult result;
  client->connect({IpAddress::must_parse("10.0.0.2"), 9999}, {},
                  [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "refused");
  EXPECT_EQ(result.handshake_time(), 2 * net.base_delay());
}

TEST_F(TransportFixture, SilentDropByListenerTimesOut) {
  // A firewalled port: the listener's accept interposer swallows every SYN.
  server->listen(9999);
  server->set_accept_interposer([](const simnet::Endpoint&, std::uint16_t) {
    return AcceptAction::kDrop;
  });
  TcpOptions options;
  options.syn_rto = ms(500);
  options.syn_retries = 1;
  ConnectResult result;
  client->connect({IpAddress::must_parse("10.0.0.2"), 9999}, options,
                  [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "timeout");
  // Initial SYN at 0 (RTO 500 ms), retransmit at 500 ms (RTO 1 s) -> 1.5 s.
  EXPECT_EQ(result.handshake_time(), ms(1500));
}

TEST_F(TransportFixture, BlackholedAddressTimesOut) {
  TcpOptions options;
  options.syn_rto = sec(1);
  options.syn_retries = 2;
  ConnectResult result;
  client->connect({IpAddress::must_parse("10.0.0.99"), 443}, options,
                  [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "timeout");
  // 1 s + 2 s + 4 s with two retransmissions.
  EXPECT_EQ(result.handshake_time(), sec(7));
}

TEST_F(TransportFixture, SynLossRecoveredByRetransmission) {
  server->listen(443);
  // Drop the first SYN only; its retransmission is accepted.
  int syns = 0;
  server->set_accept_interposer([&](const simnet::Endpoint&, std::uint16_t) {
    return ++syns == 1 ? AcceptAction::kDrop : AcceptAction::kAccept;
  });

  ConnectResult result;
  TcpOptions options;
  options.syn_rto = sec(1);
  client->connect({IpAddress::must_parse("10.0.0.2"), 443}, options,
                  [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok) << result.error;
  // Established via the 1 s retransmission.
  EXPECT_EQ(syns, 2);
  EXPECT_EQ(result.handshake_time(), sec(1) + 2 * net.base_delay());
}

TEST_F(TransportFixture, AbortReportsCancelled) {
  server->listen(443);
  ConnectResult result;
  const auto id = client->connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                                  [&](const ConnectResult& r) { result = r; });
  client->abort(id);
  net.loop().run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "cancelled");
}

TEST_F(TransportFixture, NoLocalAddressFailsImmediately) {
  simnet::Host& v4only = net.add_host("v4only");
  v4only.add_address(IpAddress::must_parse("10.0.0.7"));
  TcpStack stack{v4only};
  ConnectResult result;
  const auto id = stack.connect({IpAddress::must_parse("2001:db8::2"), 443},
                                {}, [&](const ConnectResult& r) { result = r; });
  EXPECT_EQ(id, 0u);
  EXPECT_FALSE(result.ok);
}

TEST_F(TransportFixture, DataRoundTrip) {
  std::uint64_t server_conn = 0;
  server->listen(80, [&](std::uint64_t conn_id, const simnet::Endpoint&) {
    server_conn = conn_id;
  });
  std::string server_received;
  server->set_data_handler(
      [&](std::uint64_t conn_id, std::span<const std::uint8_t> data) {
        server_received.assign(data.begin(), data.end());
        server->send_data(conn_id, {'p', 'o', 'n', 'g'});
      });
  std::string client_received;
  client->set_data_handler(
      [&](std::uint64_t, std::span<const std::uint8_t> data) {
        client_received.assign(data.begin(), data.end());
      });

  client->connect({IpAddress::must_parse("10.0.0.2"), 80}, {},
                  [&](const ConnectResult& r) {
                    ASSERT_TRUE(r.ok);
                    client->send_data(r.connection_id, {'p', 'i', 'n', 'g'});
                  });
  net.loop().run();
  EXPECT_EQ(server_received, "ping");
  EXPECT_EQ(client_received, "pong");
}

TEST_F(TransportFixture, ConnectHandlerAbortsSiblingAndReconnects) {
  server->listen(443);
  expect_abort_sibling_and_reconnect(net, *client);
  EXPECT_EQ(client->established_count(), 2u);
}

TEST_F(TransportFixture, CloseTearsDownBothSides) {
  server->listen(80);
  std::uint64_t conn_id = 0;
  client->connect({IpAddress::must_parse("10.0.0.2"), 80}, {},
                  [&](const ConnectResult& r) { conn_id = r.connection_id; });
  net.loop().run();
  EXPECT_EQ(client->established_count(), 1u);
  EXPECT_EQ(server->established_count(), 1u);
  client->close(conn_id);
  net.loop().run();
  EXPECT_EQ(client->established_count(), 0u);
  EXPECT_EQ(server->established_count(), 0u);
}

// ----------------------------------------------------------------- QUIC ----

struct QuicFixture : TransportFixture {
  QuicFixture() {
    qclient = std::make_unique<QuicStack>(client_host);
    qserver = std::make_unique<QuicStack>(server_host);
  }
  std::unique_ptr<QuicStack> qclient;
  std::unique_ptr<QuicStack> qserver;
};

TEST_F(QuicFixture, HandshakeCompletesInOneRtt) {
  qserver->listen(443);
  ConnectResult result;
  qclient->connect({IpAddress::must_parse("10.0.0.2"), 443},
                   [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.proto, TransportProtocol::kQuic);
  EXPECT_EQ(result.handshake_time(), 2 * net.base_delay());
}

TEST_F(QuicFixture, NoServiceTimesOut) {
  ConnectResult result;
  qclient->connect({IpAddress::must_parse("10.0.0.2"), 443},
                   [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "timeout");
  // Initial RTO 1 s, two resends, each timeout doubling the last.
  EXPECT_EQ(result.handshake_time(), sec(1) + sec(2) + sec(4));
}

TEST_F(QuicFixture, DataRoundTrip) {
  qserver->listen(443);
  qserver->set_data_handler(
      [&](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        qserver->send_data(conn_id, {'o', 'k'});
      });
  std::string client_received;
  qclient->set_data_handler(
      [&](std::uint64_t, std::span<const std::uint8_t> data) {
        client_received.assign(data.begin(), data.end());
      });
  qclient->connect({IpAddress::must_parse("10.0.0.2"), 443},
                   [&](const ConnectResult& r) {
                     ASSERT_TRUE(r.ok);
                     qclient->send_data(r.connection_id, {'h', 'i'});
                   });
  net.loop().run();
  EXPECT_EQ(client_received, "ok");
}

TEST_F(QuicFixture, AbortReportsCancelled) {
  qserver->listen(443);
  ConnectResult result;
  const auto id = qclient->connect({IpAddress::must_parse("10.0.0.2"), 443},
                                   [&](const ConnectResult& r) { result = r; });
  qclient->abort(id);
  net.loop().run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "cancelled");
}

TEST_F(QuicFixture, QuicPayloadDetection) {
  EXPECT_TRUE(is_quic_payload(std::vector<std::uint8_t>{'I'}));
  EXPECT_TRUE(is_quic_payload(std::vector<std::uint8_t>{'H', 1, 2}));
  EXPECT_FALSE(is_quic_payload(std::vector<std::uint8_t>{}));
  EXPECT_FALSE(is_quic_payload(std::vector<std::uint8_t>{0x42}));
}

TEST_F(QuicFixture, ConnectHandlerAbortsSiblingAndReconnects) {
  qserver->listen(443);
  expect_abort_sibling_and_reconnect(net, *qclient);
}

TEST_F(QuicFixture, DestroyedClientStackUnbindsItsPorts) {
  // The client's port binding points at the stack: once the stack is gone,
  // the server's data must find no binding instead of a freed stack.
  std::uint64_t server_conn = 0;
  qserver->listen(443, [&](std::uint64_t conn_id, const simnet::Endpoint&) {
    server_conn = conn_id;
  });
  qclient->connect({IpAddress::must_parse("10.0.0.2"), 443},
                   [](const ConnectResult& r) { ASSERT_TRUE(r.ok); });
  net.loop().run();
  ASSERT_NE(server_conn, 0u);

  int unbound = 0;
  client_host.set_protocol_handler(
      simnet::Protocol::kUdp, [&](const simnet::Packet&) { ++unbound; });
  qclient.reset();
  qserver->send_data(server_conn, {'x'});
  net.loop().run();
  EXPECT_EQ(unbound, 1);
}

TEST_F(QuicFixture, PeerCloseUnbindsEstablishedClientPort) {
  // Accept-then-reset: the client establishes, then the server's Close
  // removes the connection. Its port must go with it.
  qserver->listen(443);
  qserver->set_accept_interposer([](const simnet::Endpoint&, std::uint16_t) {
    return AcceptAction::kAcceptThenReset;
  });
  ConnectResult result;
  qclient->connect({IpAddress::must_parse("10.0.0.2"), 443},
                   [&](const ConnectResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok) << result.error;

  int unbound = 0;
  client_host.set_protocol_handler(
      simnet::Protocol::kUdp, [&](const simnet::Packet&) { ++unbound; });
  server_host.udp_send(result.remote, result.local, simnet::Buffer::adopt({'D'}));
  net.loop().run();
  EXPECT_EQ(unbound, 1);
}

TEST_F(TransportFixture, TcpAndQuicCoexistOnSameHost) {
  // TCP listener and QUIC listener on the same port number do not clash
  // (different protocols).
  QuicStack qserver{server_host};
  qserver.listen(443);
  server->listen(443);

  QuicStack qclient{client_host};
  ConnectResult tcp_result;
  ConnectResult quic_result;
  client->connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                  [&](const ConnectResult& r) { tcp_result = r; });
  qclient.connect({IpAddress::must_parse("10.0.0.2"), 443},
                  [&](const ConnectResult& r) { quic_result = r; });
  net.loop().run();
  EXPECT_TRUE(tcp_result.ok);
  EXPECT_TRUE(quic_result.ok);
}

// ------------------------------------------------------- connection table --
// Tuple lookup is an in-order scan of the id-ordered table: the lowest-id
// match wins on duplicate tuples, and removal leaves other entries findable.

FourTuple tuple_for(std::uint16_t local_port, std::uint16_t remote_port) {
  FourTuple t;
  t.local = {IpAddress::must_parse("10.0.0.1"), local_port};
  t.remote = {IpAddress::must_parse("10.0.0.2"), remote_port};
  return t;
}

TEST_F(TransportFixture, TableFindAfterAcceptAndRemove) {
  ConnectionTable table{client_host, TransportProtocol::kTcp,
                        [](const FourTuple&) {}};
  EXPECT_EQ(table.find(tuple_for(1000, 443)), nullptr);
  Connection& a = table.accept(tuple_for(1000, 443), ConnState::kEstablished);
  Connection& b = table.accept(tuple_for(1001, 443), ConnState::kEstablished);
  EXPECT_EQ(table.find(tuple_for(1000, 443)), &a);
  EXPECT_EQ(table.find(tuple_for(1001, 443)), &b);

  const std::uint64_t a_id = a.id;
  table.remove(a);
  EXPECT_EQ(table.find(tuple_for(1000, 443)), nullptr);
  EXPECT_EQ(table.find(a_id), nullptr);
  EXPECT_EQ(table.find(tuple_for(1001, 443)), &b);
  table.fail(a_id, "cancelled");  // unknown id: no-op
  EXPECT_EQ(table.connections().size(), 1u);
}

TEST_F(TransportFixture, TableDuplicateTuplesResolveToLowestId) {
  ConnectionTable table{client_host, TransportProtocol::kTcp,
                        [](const FourTuple&) {}};
  Connection& low = table.accept(tuple_for(1000, 443), ConnState::kEstablished);
  Connection& high = table.accept(tuple_for(1000, 443), ConnState::kEstablished);
  ASSERT_LT(low.id, high.id);
  EXPECT_EQ(table.find(tuple_for(1000, 443)), &low);

  table.remove(low);
  EXPECT_EQ(table.find(tuple_for(1000, 443)), &high);
}

TEST_F(TransportFixture, TableTupleLookupFollowsRemovalsInAnyOrder) {
  // Three connections share one tuple around a fourth: removing from the
  // middle, the front and the back of the id order always leaves find() on
  // the lowest live id, and a later arrival with the tuple ranks last.
  ConnectionTable table{client_host, TransportProtocol::kTcp,
                        [](const FourTuple&) {}};
  const FourTuple shared = tuple_for(1000, 443);
  Connection& first = table.accept(shared, ConnState::kEstablished);
  Connection& other = table.accept(tuple_for(1001, 443), ConnState::kHalfOpen);
  Connection& second = table.accept(shared, ConnState::kEstablished);
  Connection& third = table.accept(shared, ConnState::kEstablished);

  table.remove(second);
  EXPECT_EQ(table.find(shared), &first);
  table.remove(first);
  EXPECT_EQ(table.find(shared), &third);
  EXPECT_EQ(table.find(tuple_for(1001, 443)), &other);
  Connection& fourth = table.accept(shared, ConnState::kEstablished);
  EXPECT_EQ(table.find(shared), &third);
  table.remove(third);
  EXPECT_EQ(table.find(shared), &fourth);
  table.remove(fourth);
  EXPECT_EQ(table.find(shared), nullptr);
  EXPECT_EQ(table.find(tuple_for(1001, 443)), &other);
  EXPECT_EQ(table.connections().size(), 1u);
}

TEST_F(TransportFixture, DestroyedStackLeavesNoRetransmitTimer) {
  // A pending SYN retransmit timer points at the stack; destroying the stack
  // mid-attempt must cancel it rather than let it fire into freed memory.
  client->connect({IpAddress::must_parse("10.0.0.99"), 443}, {},
                  [](const ConnectResult&) {});
  ASSERT_EQ(net.loop().pending(), 1u);
  client.reset();
  EXPECT_EQ(net.loop().pending(), 0u);
  net.loop().run();
}

TEST_F(TransportFixture, ManyParallelConnectionsKeepDistinctTuples) {
  // End-to-end lookup coverage: dozens of parallel attempts must each
  // complete a distinct handshake — any tuple mixup would cross-deliver.
  server->listen(443);
  constexpr int kAttempts = 40;
  int completed = 0;
  std::vector<std::uint64_t> conn_ids;
  for (int i = 0; i < kAttempts; ++i) {
    client->connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                    [&](const ConnectResult& r) {
                      ASSERT_TRUE(r.ok) << r.error;
                      conn_ids.push_back(r.connection_id);
                      ++completed;
                    });
  }
  net.loop().run();
  EXPECT_EQ(completed, kAttempts);
  std::set<std::uint64_t> distinct{conn_ids.begin(), conn_ids.end()};
  EXPECT_EQ(distinct.size(), conn_ids.size());
}

}  // namespace
}  // namespace lazyeye::transport
