#include "he/engine.h"

#include <algorithm>

#include "util/strings.h"

namespace lazyeye::he {

const char* he_event_type_name(HeEvent::Type type) {
  switch (type) {
    case HeEvent::Type::kCacheHit: return "cache-hit";
    case HeEvent::Type::kDnsQuerySent: return "dns-query";
    case HeEvent::Type::kDnsResponse: return "dns-response";
    case HeEvent::Type::kDnsError: return "dns-error";
    case HeEvent::Type::kResolutionDelayStarted: return "rd-start";
    case HeEvent::Type::kResolutionDelayExpired: return "rd-expired";
    case HeEvent::Type::kAddressSelectionDone: return "address-selection";
    case HeEvent::Type::kAttemptStarted: return "attempt-start";
    case HeEvent::Type::kAttemptFailed: return "attempt-failed";
    case HeEvent::Type::kConnectionEstablished: return "established";
    case HeEvent::Type::kFailed: return "failed";
  }
  return "?";
}

HappyEyeballsEngine::HappyEyeballsEngine(simnet::Host& host,
                                         dns::StubResolver& stub,
                                         transport::TcpStack& tcp)
    : host_{host},
      stub_{stub},
      tcp_{tcp},
      cache_{host.network().memory()},
      sessions_{host.network().memory()} {}

void HappyEyeballsEngine::trace_event(Session& s, HeEvent::Type type,
                                      std::string detail,
                                      simnet::IpAddress address) {
  s.trace.push_back(HeEvent{type, host_.network().loop().now(),
                            std::move(detail), address});
}

std::uint64_t HappyEyeballsEngine::connect(const dns::DnsName& hostname,
                                           std::uint16_t port,
                                           CompletionHandler handler) {
  const std::uint64_t id = next_session_id_++;
  Session& s =
      sessions_.try_emplace(id, sessions_.get_allocator().resource())
          .first->second;
  s.id = id;
  s.host = hostname;
  s.port = port;
  s.handler = std::move(handler);
  s.opts = options_;
  s.started = host_.network().loop().now();
  // One up-front block per vector instead of doubling through the typical
  // session's growth (a session sees ~10 trace events, a few addresses and
  // attempts).
  s.trace.reserve(12);
  s.v6.reserve(4);
  s.v4.reserve(4);
  s.plan.reserve(4);
  s.attempt_ids.reserve(4);

  // Reject a nonsensical parameter space up front: a configuration error is
  // delivered through the normal completion path (handler fires exactly
  // once). Deferred to the loop so the handler never runs re-entrantly
  // inside connect() — every other completion path fires from the loop.
  if (const Status config = s.opts.validate(); !config.ok()) {
    host_.network().loop().schedule_after(
        SimTime{0},
        [this, id, error = "configuration: " + config.error()] {
          fail(id, error);
        });
    return id;
  }

  s.overall_timer = host_.network().loop().schedule_after(
      s.opts.overall_timeout, [this, id] { fail(id, "overall timeout"); });

  // RFC 6555 §4.1 cache: go straight to the remembered winner.
  if (const auto cached = cache_.lookup(hostname, s.started)) {
    trace_event(s, HeEvent::Type::kCacheHit, cached->to_string(), *cached);
    s.cache_attempt_active = true;
    s.connecting = true;
    s.plan.push_back(AttemptPlan{*cached});
    launch_next_attempt(id);
    return id;
  }

  start_dns(id);
  return id;
}

void HappyEyeballsEngine::cancel(std::uint64_t session_id) {
  fail(session_id, "cancelled");
}

void HappyEyeballsEngine::start_dns(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;

  trace_event(s, HeEvent::Type::kDnsQuerySent, "AAAA then A");

  dns::StubResolver::DualHandlers handlers;
  handlers.on_records = [this, session_id](
                            dns::RrType type,
                            const std::vector<simnet::IpAddress>& addrs,
                            SimTime) {
    on_dns_records(session_id, type, addrs);
  };
  handlers.on_error = [this, session_id](dns::RrType type,
                                         const std::string& error) {
    on_dns_error(session_id, type, error);
  };
  s.dns_handle = stub_.resolve_dual(s.host, handlers);
}

void HappyEyeballsEngine::on_dns_records(
    std::uint64_t session_id, dns::RrType type,
    const std::vector<simnet::IpAddress>& addrs) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;

  auto& list = type == dns::RrType::kAaaa ? s.v6 : s.v4;
  for (const auto& addr : addrs) {
    if (std::find(list.begin(), list.end(), addr) == list.end()) {
      list.push_back(addr);
    }
  }
  if (type == dns::RrType::kAaaa) {
    s.aaaa_done = true;
  } else {
    s.a_done = true;
  }
  trace_event(s, HeEvent::Type::kDnsResponse,
              lazyeye::str_cat(rr_type_name(type), ": ", addrs.size(),
                               " records"));
  reconsider(session_id);
}

void HappyEyeballsEngine::on_dns_error(std::uint64_t session_id,
                                       dns::RrType type,
                                       const std::string& error) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;
  if (type == dns::RrType::kAaaa) {
    s.aaaa_done = true;
    s.aaaa_failed = true;
  } else {
    s.a_done = true;
    s.a_failed = true;
  }
  trace_event(s, HeEvent::Type::kDnsError,
              std::string{rr_type_name(type)} + ": " + error);
  reconsider(session_id);
}

bool HappyEyeballsEngine::dns_settled(const Session& s) const {
  return s.aaaa_done && s.a_done;
}

void HappyEyeballsEngine::reconsider(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;

  // The §5.2 deviation: fail the whole connection when the A lookup failed,
  // regardless of a perfectly fine AAAA answer (Chrome/Firefox).
  if (s.opts.fail_on_a_timeout && s.a_failed && !s.connecting) {
    fail(session_id, "A lookup failed");
    return;
  }

  if (s.connecting) {
    // Already racing: fold any newly learned addresses into the plan
    // (e.g. AAAA arriving after the RD expired).
    rebuild_plan(s);
    if (s.rd_armed && s.aaaa_done) {
      host_.network().loop().cancel(s.rd_timer);
      s.rd_armed = false;
    }
    if (s.in_flight == 0) {
      // The race had stalled (every prior attempt failed): the new
      // candidates may unblock it right away.
      launch_next_attempt(session_id);
    } else if (!s.cad_armed) {
      // Attempts are pending but no stagger step is scheduled: arm one so
      // the new candidates get their turn after a CAD.
      arm_cad(s);
    }
    return;
  }

  if (s.opts.wait_for_a_record) {
    // Wait for the complete resolution (both record types settled).
    if (dns_settled(s)) {
      start_connecting(session_id);
    }
    return;
  }

  // RFC 8305 §3 logic.
  if (s.aaaa_done && !s.aaaa_failed && !s.v6.empty()) {
    // Positive AAAA: connect immediately.
    start_connecting(session_id);
    return;
  }
  if (s.aaaa_done && (s.aaaa_failed || s.v6.empty())) {
    // AAAA settled negatively; IPv4 is all we will get.
    if (s.a_done) {
      start_connecting(session_id);
    }
    return;
  }
  if (s.a_done && !s.a_failed && !s.aaaa_done) {
    // A first. Start the Resolution Delay if configured; otherwise keep
    // waiting for the AAAA answer or its resolver timeout (§5.2 behaviour).
    if (s.opts.resolution_delay && !s.rd_armed && !s.rd_expired) {
      s.rd_armed = true;
      trace_event(s, HeEvent::Type::kResolutionDelayStarted,
                  format_duration(*s.opts.resolution_delay));
      s.rd_timer = host_.network().loop().schedule_after(
          *s.opts.resolution_delay, [this, session_id] {
            auto sit = sessions_.find(session_id);
            if (sit == sessions_.end() || sit->second.finished) return;
            sit->second.rd_armed = false;
            sit->second.rd_expired = true;
            trace_event(sit->second, HeEvent::Type::kResolutionDelayExpired);
            start_connecting(session_id);
          });
    }
    return;
  }
  if (s.a_done && s.a_failed && s.aaaa_done) {
    // Both failed.
    if (s.v6.empty() && s.v4.empty()) {
      fail(session_id, "name resolution failed");
    } else {
      start_connecting(session_id);
    }
    return;
  }
}

void HappyEyeballsEngine::rebuild_plan(Session& s) {
  const auto selected = select_addresses({s.v6, s.v4}, s.opts);

  // Started entries keep their place (history can't be rewritten); the
  // not-yet-started tail is re-derived from the full selection so that
  // late-arriving records land at their proper interlaced position
  // (RFC 8305 §5: newly resolved addresses join the ordered list).
  std::erase_if(s.plan, [](const AttemptPlan& p) { return !p.started; });
  for (const auto& address : selected) {
    const bool planned = std::any_of(
        s.plan.begin(), s.plan.end(),
        [&](const AttemptPlan& p) { return p.address == address; });
    if (!planned) s.plan.push_back(AttemptPlan{address});
  }
  s.next_attempt = 0;  // the skip loop advances past started entries
}

void HappyEyeballsEngine::start_connecting(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;
  if (s.connecting) return;
  s.connecting = true;
  if (s.rd_armed) {
    host_.network().loop().cancel(s.rd_timer);
    s.rd_armed = false;
  }
  rebuild_plan(s);
  trace_event(s, HeEvent::Type::kAddressSelectionDone,
              lazyeye::str_cat(s.plan.size(), " attempts planned"));
  if (s.plan.empty()) {
    if (dns_settled(s)) {
      fail(session_id, "no usable addresses");
    }
    return;
  }
  launch_next_attempt(session_id);
}

void HappyEyeballsEngine::launch_next_attempt(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;
  if (!s.connecting) return;

  // Find the next unstarted entry.
  while (s.next_attempt < s.plan.size() && s.plan[s.next_attempt].started) {
    ++s.next_attempt;
  }
  if (s.next_attempt >= s.plan.size()) {
    maybe_all_failed(session_id);
    return;
  }

  // Copy out what we need before calling connect(): a synchronous callback
  // may rebuild the plan and invalidate references into it.
  AttemptPlan& attempt = s.plan[s.next_attempt];
  attempt.started = true;
  ++s.next_attempt;
  ++s.in_flight;
  const simnet::Endpoint remote{attempt.address, s.port};
  trace_event(s, HeEvent::Type::kAttemptStarted, remote.to_string(),
              attempt.address);

  const std::uint64_t attempt_id = tcp_.connect(
      remote, s.opts.tcp,
      [this, session_id](const transport::ConnectResult& result) {
        on_attempt_result(session_id, result);
      });

  // Re-lookup: the connect call may have completed synchronously.
  auto it2 = sessions_.find(session_id);
  if (it2 == sessions_.end() || it2->second.finished) return;
  Session& s2 = it2->second;
  if (attempt_id != 0) s2.attempt_ids.push_back(attempt_id);

  // Arm the Connection Attempt Delay for the next stagger step.
  bool more_planned = false;
  for (std::size_t i = s2.next_attempt; i < s2.plan.size(); ++i) {
    if (!s2.plan[i].started) more_planned = true;
  }
  if (more_planned || !dns_settled(s2)) {
    arm_cad(s2);
  }
}

void HappyEyeballsEngine::arm_cad(Session& s) {
  const std::uint64_t session_id = s.id;
  host_.network().loop().cancel(s.cad_timer);
  const SimTime cad = s.opts.effective_cad(srtt_);
  s.cad_armed = true;
  s.cad_timer = host_.network().loop().schedule_after(
      cad, [this, session_id] {
        auto it = sessions_.find(session_id);
        if (it == sessions_.end() || it->second.finished) return;
        it->second.cad_armed = false;
        launch_next_attempt(session_id);
      });
}

void HappyEyeballsEngine::on_attempt_result(
    std::uint64_t session_id, const transport::ConnectResult& result) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;

  if (result.ok) {
    succeed(session_id, result);
    return;
  }
  if (result.error == "cancelled") return;  // engine-initiated abort

  --s.in_flight;
  trace_event(s, HeEvent::Type::kAttemptFailed,
              result.remote.to_string() + ": " + result.error,
              result.remote.addr);

  if (s.cache_attempt_active) {
    // The cached winner is stale: forget it and run the full algorithm.
    s.cache_attempt_active = false;
    cache_.erase(s.host);
    s.plan.clear();
    s.next_attempt = 0;
    s.connecting = false;
    start_dns(session_id);
    return;
  }

  // RFC 8305 §5: on failure, the next attempt starts immediately.
  host_.network().loop().cancel(s.cad_timer);
  s.cad_armed = false;
  launch_next_attempt(session_id);
}

void HappyEyeballsEngine::maybe_all_failed(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;
  if (s.in_flight > 0) return;
  if (!dns_settled(s)) return;  // more candidates may still arrive
  bool any_unstarted = false;
  for (const auto& p : s.plan) {
    if (!p.started) any_unstarted = true;
  }
  if (any_unstarted) return;
  fail(session_id, s.plan.empty() ? "no usable addresses"
                                  : "all connection attempts failed");
}

void HappyEyeballsEngine::succeed(std::uint64_t session_id,
                                  const transport::ConnectResult& result) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;
  s.finished = true;

  // The winner must survive teardown's abort sweep.
  std::erase(s.attempt_ids, result.connection_id);

  trace_event(s, HeEvent::Type::kConnectionEstablished,
              result.remote.to_string(), result.remote.addr);

  // Update the smoothed RTT estimate (feeds dynamic CAD).
  const SimTime sample = result.handshake_time();
  if (srtt_) {
    srtt_ = SimTime{(srtt_->count() * 7 + sample.count()) / 8};
  } else {
    srtt_ = sample;
  }

  cache_.store(s.host, result.remote.addr, host_.network().loop().now(),
               s.opts.cache_ttl);

  HeResult out;
  out.ok = true;
  out.remote = result.remote;
  out.started = s.started;
  out.completed = host_.network().loop().now();
  out.connection_id = result.connection_id;
  finish(session_id, std::move(out));
}

void HappyEyeballsEngine::fail(std::uint64_t session_id,
                               const std::string& error) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.finished) return;
  Session& s = it->second;
  s.finished = true;
  trace_event(s, HeEvent::Type::kFailed, error);

  HeResult out;
  out.ok = false;
  out.error = error;
  out.started = s.started;
  out.completed = host_.network().loop().now();
  finish(session_id, std::move(out));
}

void HappyEyeballsEngine::teardown(Session& s) {
  auto& loop = host_.network().loop();
  loop.cancel(s.overall_timer);
  loop.cancel(s.cad_timer);
  loop.cancel(s.rd_timer);
  if (s.dns_handle != 0) stub_.cancel(s.dns_handle);
  for (const std::uint64_t attempt_id : s.attempt_ids) tcp_.abort(attempt_id);
  s.attempt_ids.clear();
}

void HappyEyeballsEngine::finish(std::uint64_t session_id, HeResult result) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  teardown(s);
  result.trace = std::move(s.trace);
  CompletionHandler handler = std::move(s.handler);
  sessions_.erase(it);
  if (handler) handler(std::move(result));
}

}  // namespace lazyeye::he
