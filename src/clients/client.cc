#include "clients/client.h"

#include <cmath>

namespace lazyeye::clients {

namespace {

dns::StubOptions apply_profile(dns::StubOptions resolver,
                               const ClientProfile& profile) {
  resolver.timeout = profile.dns_timeout;
  resolver.attempts_per_server = profile.dns_attempts;
  return resolver;
}

}  // namespace

SimulatedClient::SimulatedClient(simnet::Host& host, ClientProfile profile,
                                 dns::StubOptions resolver, std::uint64_t seed)
    : host_{host},
      profile_{std::move(profile)},
      rng_{seed},
      tcp_{host},
      stub_{host, apply_profile(std::move(resolver), profile_)},
      engine_{host, stub_, tcp_},
      connecting_{host.network().memory()},
      pending_{host.network().memory()} {
  engine_.set_options(profile_.options);

  // Route response data back to the owning fetch.
  tcp_.set_data_handler(
      [this](std::uint64_t conn_id, std::span<const std::uint8_t> data) {
        const auto it = pending_.find(conn_id);
        if (it == pending_.end()) return;
        PendingFetch fetch = std::move(it->second);
        host_.network().loop().cancel(fetch.response_timer);
        pending_.erase(it);
        FetchResult result;
        result.connection = std::move(fetch.connection);
        result.response_received = true;
        result.response.assign(data.begin(), data.end());
        fetch.handler(std::move(result));
      });
}

void SimulatedClient::reset_state() {
  engine_.cache().clear();
  engine_.set_smoothed_rtt(std::nullopt);
}

void SimulatedClient::configure_session_options() {
  he::HeOptions options = profile_.options;
  if (profile_.cad_outlier_prob > 0.0 &&
      rng_.chance(profile_.cad_outlier_prob)) {
    options.connection_attempt_delay += profile_.cad_outlier_extra;
  }
  if (profile_.dynamic_cad_in_web && web_conditions_) {
    // Safari's dynamic CAD in the wild is driven by opaque internal history
    // the paper could not pin to any external condition (§5.1: "Neither the
    // network context, nor the focus of the application window, nor the
    // power supply had any noticeable impact"). Model that hidden state as
    // a log-uniform smoothed-RTT sample per session; with the profile's
    // multiplier/caps the effective CAD spans the observed 50 ms .. 5 s.
    const double log_min = std::log(5.0);    // 5 ms
    const double log_max = std::log(500.0);  // 500 ms
    const double sample_ms =
        std::exp(log_min + (log_max - log_min) * rng_.next_double());
    engine_.set_smoothed_rtt(lazyeye::ms_f(sample_ms));
  }
  // In lab conditions the dynamic CAD stays configured, but reset_state()
  // cleared the history, so the no-history default (Safari: 2 s) applies.
  engine_.set_options(std::move(options));
}

void SimulatedClient::fetch(const dns::DnsName& hostname, std::uint16_t port,
                            FetchHandler handler) {
  configure_session_options();
  const std::uint64_t fetch_id = next_fetch_id_++;
  connecting_.emplace(fetch_id, std::move(handler));
  engine_.connect(hostname, port, [this, fetch_id](he::HeResult result) {
    on_connected(fetch_id, std::move(result));
  });
}

void SimulatedClient::on_connected(std::uint64_t fetch_id,
                                   he::HeResult result) {
  const auto it = connecting_.find(fetch_id);
  FetchHandler handler = std::move(it->second);
  connecting_.erase(it);
  if (!result.ok) {
    FetchResult out;
    out.connection = std::move(result);
    handler(std::move(out));
    return;
  }
  // Issue the request over the winning connection; the response comes back
  // through the TCP stack's data handler.
  const std::uint64_t conn_id = result.connection_id;
  PendingFetch fetch;
  fetch.handler = std::move(handler);
  fetch.connection = std::move(result);
  fetch.response_timer = host_.network().loop().schedule_after(
      lazyeye::sec(10), [this, conn_id] {
        const auto pit = pending_.find(conn_id);
        if (pit == pending_.end()) return;
        PendingFetch timed_out = std::move(pit->second);
        pending_.erase(pit);
        FetchResult out;
        out.connection = std::move(timed_out.connection);
        out.response_received = false;
        timed_out.handler(std::move(out));
      });
  pending_.emplace(conn_id, std::move(fetch));

  constexpr std::string_view kRequest = "GET /";
  simnet::Buffer payload;  // inline: no allocation per request
  payload.append(kRequest.data(), kRequest.size());
  tcp_.send_data(conn_id, std::move(payload));
}

}  // namespace lazyeye::clients
