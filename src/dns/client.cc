#include "dns/client.h"

namespace lazyeye::dns {

DnsClient::DnsClient(simnet::Host& host)
    : host_{host}, transactions_{host.network().memory()} {}

std::uint64_t DnsClient::query(const simnet::Endpoint& server,
                               const DnsName& name, RrType type,
                               const DnsClientOptions& options,
                               Handler handler, bool recursion_desired) {
  const auto src_addr = host_.address(server.addr.family());
  if (!src_addr) {
    QueryOutcome outcome;
    outcome.error = "no local address for " +
                    std::string{simnet::family_name(server.addr.family())};
    handler(outcome);
    return 0;
  }

  const std::uint64_t handle = next_handle_++;
  Transaction txn;
  txn.txn_id =
      static_cast<std::uint16_t>(host_.network().rng().next_below(65536));
  txn.local_port = host_.ephemeral_port();
  txn.server = server;
  txn.name = name;
  txn.type = type;
  txn.recursion_desired = recursion_desired;
  txn.options = options;
  txn.handler = std::move(handler);
  transactions_.emplace(handle, std::move(txn));

  host_.udp_bind(transactions_.at(handle).local_port,
                 [this, handle](const simnet::Packet& p) {
                   on_datagram(handle, p);
                 });
  send_attempt(handle);
  return handle;
}

void DnsClient::cancel(std::uint64_t handle) {
  const auto it = transactions_.find(handle);
  if (it == transactions_.end()) return;
  host_.network().loop().cancel(it->second.timer);
  host_.udp_unbind(it->second.local_port);
  transactions_.erase(it);
}

void DnsClient::send_attempt(std::uint64_t handle) {
  auto& txn = transactions_.at(handle);
  auto& loop = host_.network().loop();
  if (txn.attempts_made == 0) txn.first_send = loop.now();
  ++txn.attempts_made;

  const auto src_addr = host_.address(txn.server.addr.family());
  // Build the query in the reused scratch envelope and serialise it into a
  // pooled buffer: the steady-state send path recycles both.
  DnsMessage& query = *query_scratch_;
  query.header = DnsHeader{};
  query.header.id = txn.txn_id;
  query.header.rd = txn.recursion_desired;
  query.questions.resize(1);
  query.questions.front().name = txn.name;
  query.questions.front().type = txn.type;
  simnet::Buffer wire{&host_.network().buffer_pool()};
  query.encode_into(wire, *compressor_);
  host_.udp_send({*src_addr, txn.local_port}, txn.server, std::move(wire));

  txn.timer = loop.schedule_after(txn.options.timeout,
                                  [this, handle] { on_timeout(handle); });
}

void DnsClient::on_datagram(std::uint64_t handle,
                            const simnet::Packet& packet) {
  const auto it = transactions_.find(handle);
  if (it == transactions_.end()) return;
  Transaction& txn = it->second;

  // Decode into the reused scratch message; rejected datagrams (garbage,
  // wrong id, off-path) never cost a fresh message's allocations.
  DnsMessage& msg = *response_scratch_;
  if (!DnsMessage::decode_into(packet.payload, msg)) {
    return;  // garbage: keep waiting
  }
  if (!msg.header.qr || msg.header.id != txn.txn_id) return;
  if (packet.src != txn.server) return;  // off-path response

  QueryOutcome outcome;
  outcome.ok = msg.header.rcode == Rcode::kNoError;
  outcome.rcode = msg.header.rcode;
  outcome.rtt = host_.network().loop().now() - txn.first_send;
  // Swap the decoded message out against a pooled envelope: the scratch gets
  // recycled capacity for the next decode instead of re-growing.
  outcome.response = MessagePool::local().acquire();
  std::swap(outcome.response, msg);
  if (!outcome.ok) outcome.error = rcode_name(outcome.rcode);
  finish(handle, outcome);
  // The handler received a const ref; reclaim the response envelope —
  // contents and all, since decode_into() assigns sections in place. Only
  // envelopes checked out here go back: returning a timeout's empty one
  // too would push warm envelopes out of the capped pool.
  MessagePool::local().release(std::move(outcome.response));
}

void DnsClient::on_timeout(std::uint64_t handle) {
  const auto it = transactions_.find(handle);
  if (it == transactions_.end()) return;
  Transaction& txn = it->second;
  if (txn.attempts_made < txn.options.attempts) {
    send_attempt(handle);
    return;
  }
  QueryOutcome outcome;
  outcome.error = "timeout";
  outcome.rtt = host_.network().loop().now() - txn.first_send;
  finish(handle, outcome);
}

void DnsClient::finish(std::uint64_t handle, const QueryOutcome& outcome) {
  const auto it = transactions_.find(handle);
  if (it == transactions_.end()) return;
  Handler handler = std::move(it->second.handler);
  host_.network().loop().cancel(it->second.timer);
  host_.udp_unbind(it->second.local_port);
  transactions_.erase(it);
  handler(outcome);
}

}  // namespace lazyeye::dns
