// The Happy Eyeballs engine: orchestrates DNS (AAAA/A), resolution delay,
// address selection and staggered TCP connection racing, per the configured
// HeOptions. One engine per client instance; sessions are independent
// connects.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory_resource>
#include <optional>
#include <vector>

#include "dns/stub_resolver.h"
#include "he/address_selection.h"
#include "he/cache.h"
#include "he/options.h"
#include "he/trace.h"
#include "transport/tcp.h"

namespace lazyeye::he {

class HappyEyeballsEngine {
 public:
  // By value so the engine can move the result (and its trace) straight into
  // the handler; callers taking `const HeResult&` still bind unchanged.
  using CompletionHandler = std::function<void(HeResult)>;

  HappyEyeballsEngine(simnet::Host& host, dns::StubResolver& stub,
                      transport::TcpStack& tcp);

  HeOptions& options() { return options_; }
  const HeOptions& options() const { return options_; }
  void set_options(HeOptions options) { options_ = std::move(options); }

  OutcomeCache& cache() { return cache_; }

  /// Smoothed RTT estimate feeding the dynamic CAD (updated automatically
  /// from successful handshakes; can be seeded or cleared).
  std::optional<SimTime> smoothed_rtt() const { return srtt_; }
  void set_smoothed_rtt(std::optional<SimTime> rtt) { srtt_ = rtt; }

  /// Starts a Happy Eyeballs connection to hostname:port. The handler is
  /// invoked exactly once with the outcome (including the full event trace).
  std::uint64_t connect(const dns::DnsName& hostname, std::uint16_t port,
                        CompletionHandler handler);

  /// Cancels a session; the handler fires with error "cancelled".
  void cancel(std::uint64_t session_id);

  std::size_t active_sessions() const { return sessions_.size(); }

 private:
  struct AttemptPlan {
    simnet::IpAddress address;
    bool started = false;
  };

  /// Built in place in sessions_ with the map's resource, which its address
  /// and attempt vectors share.
  struct Session {
    explicit Session(std::pmr::memory_resource* memory)
        : v6{memory},
          v4{memory},
          selected{memory},
          plan{memory},
          attempt_ids{memory} {}

    std::uint64_t id = 0;
    dns::DnsName host;
    std::uint16_t port = 443;
    CompletionHandler handler;
    HeOptions opts;
    SimTime started{0};
    HeTrace trace;

    // DNS state.
    std::uint64_t dns_handle = 0;
    bool aaaa_done = false;
    bool a_done = false;
    bool aaaa_failed = false;
    bool a_failed = false;
    std::pmr::vector<simnet::IpAddress> v6;
    std::pmr::vector<simnet::IpAddress> v4;
    // select_addresses' output, rebuilt in place by rebuild_plan.
    std::pmr::vector<simnet::IpAddress> selected;
    simnet::TimerId rd_timer;
    bool rd_armed = false;
    bool rd_expired = false;

    // Connection state.
    bool connecting = false;
    std::pmr::vector<AttemptPlan> plan;
    std::size_t next_attempt = 0;
    int in_flight = 0;
    std::pmr::vector<std::uint64_t> attempt_ids;
    simnet::TimerId cad_timer;
    bool cad_armed = false;
    simnet::TimerId overall_timer;

    // Cache fast-path state.
    bool cache_attempt_active = false;

    bool finished = false;
  };

  /// Appends an event of `type` and returns its detail, which the caller
  /// fills with the values the type's sentence reads (trace.h).
  HeDetail& trace_event(Session& s, HeEvent::Type type,
                        simnet::IpAddress address = {});

  void start_dns(std::uint64_t session_id);
  void on_dns_records(std::uint64_t session_id, dns::RrType type,
                      const std::vector<simnet::IpAddress>& addrs);
  void on_dns_error(std::uint64_t session_id, dns::RrType type,
                    const std::string& error);
  void reconsider(std::uint64_t session_id);
  void start_connecting(std::uint64_t session_id);
  void rebuild_plan(Session& s);
  void arm_cad(Session& s);
  void launch_next_attempt(std::uint64_t session_id);
  void on_attempt_result(std::uint64_t session_id,
                         const transport::ConnectResult& result);
  void maybe_all_failed(std::uint64_t session_id);
  bool dns_settled(const Session& s) const;
  void succeed(std::uint64_t session_id,
               const transport::ConnectResult& result);
  void fail(std::uint64_t session_id, const std::string& error);
  void teardown(Session& s);
  void finish(std::uint64_t session_id, HeResult result);

  simnet::Host& host_;
  dns::StubResolver& stub_;
  transport::TcpStack& tcp_;
  HeOptions options_;
  OutcomeCache cache_;
  std::optional<SimTime> srtt_;
  // Session nodes and their address, selection and attempt vectors come
  // from the world's arena. Only the trace is std::, as it moves out into
  // HeResult; address selection reads the address vectors through spans.
  std::pmr::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_id_ = 1;
};

}  // namespace lazyeye::he
