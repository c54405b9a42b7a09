// One-shot UDP DNS query helper: socket + transaction id matching + timeout
// + retransmission. Both the stub resolver and the recursive resolver build
// on this.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory_resource>
#include <string>

#include "dns/message.h"
#include "dns/message_pool.h"
#include "simnet/host.h"
#include "simnet/network.h"
#include "util/time.h"

namespace lazyeye::dns {

struct QueryOutcome {
  bool ok = false;
  Rcode rcode = Rcode::kServFail;
  DnsMessage response;       // valid when ok
  SimTime rtt{0};            // time from first send to response
  std::string error;         // "timeout", "network", ... when !ok
};

struct DnsClientOptions {
  SimTime timeout = lazyeye::sec(5);  // per-attempt timeout
  int attempts = 1;                   // total attempts (1 = no retry)
};

/// Issues UDP DNS queries from a host. One ephemeral socket per transaction.
class DnsClient {
 public:
  using Handler = std::function<void(const QueryOutcome&)>;

  explicit DnsClient(simnet::Host& host);

  DnsClient(const DnsClient&) = delete;
  DnsClient& operator=(const DnsClient&) = delete;

  /// Sends `question` to `server`; the source address is the host's address
  /// matching the server's family. Returns a transaction handle (0 on
  /// immediate failure, e.g. no source address of that family — the handler
  /// is then invoked synchronously with an error).
  std::uint64_t query(const simnet::Endpoint& server, const DnsName& name,
                      RrType type, const DnsClientOptions& options,
                      Handler handler, bool recursion_desired = false);

  /// Cancels an in-flight transaction (its handler will not run).
  void cancel(std::uint64_t handle);

  /// Number of in-flight transactions.
  std::size_t in_flight() const { return transactions_.size(); }

 private:
  struct Transaction {
    std::uint16_t txn_id = 0;
    std::uint16_t local_port = 0;
    simnet::Endpoint server;
    DnsName name;
    RrType type;
    bool recursion_desired = false;
    DnsClientOptions options;
    int attempts_made = 0;
    SimTime first_send{0};
    simnet::TimerId timer;
    Handler handler;
  };

  void send_attempt(std::uint64_t handle);
  void on_datagram(std::uint64_t handle, const simnet::Packet& packet);
  void on_timeout(std::uint64_t handle);
  void finish(std::uint64_t handle, const QueryOutcome& outcome);

  simnet::Host& host_;
  // Node storage from the world's arena: transaction churn lands on retained
  // chunks instead of the global heap.
  std::pmr::map<std::uint64_t, Transaction> transactions_;
  std::uint64_t next_handle_ = 1;
  // Scratch reused across sends/receives (single-threaded per host): the
  // query envelope, the name-compression table, and the decode target keep
  // their capacity, so a steady-state query round trip barely allocates.
  // Checked out of the thread-local scratch pools so the capacity also
  // survives this client's world: consecutive cells on a worker thread
  // reuse the same section and compression storage instead of re-growing
  // it.
  Pooled<DnsMessage> query_scratch_;
  Pooled<DnsMessage> response_scratch_;
  Pooled<NameCompressor> compressor_;
};

}  // namespace lazyeye::dns
