#include "dns/recursive_resolver.h"

#include <algorithm>

namespace lazyeye::dns {

namespace {
constexpr int kMaxCnameChase = 4;
constexpr int kMaxDelegationDepth = 12;
/// How long to wait for NS-name address responses before proceeding with
/// whatever addresses are known.
constexpr SimTime kNsQueryTimeout = lazyeye::ms(800);
/// Overall budget of one client query.
constexpr SimTime kOverallTimeout = lazyeye::sec(15);
}  // namespace

const char* ns_query_strategy_name(NsQueryStrategy s) {
  switch (s) {
    case NsQueryStrategy::kAaaaThenA: return "AAAA-then-A";
    case NsQueryStrategy::kAThenAaaa: return "A-then-AAAA";
    case NsQueryStrategy::kAaaaAfterFirstUse: return "AAAA-after-first-use";
    case NsQueryStrategy::kEitherOr: return "either-or";
    case NsQueryStrategy::kGlueOnly: return "glue-only";
  }
  return "?";
}

RecursiveResolver::RecursiveResolver(simnet::Host& host,
                                     ResolverProfile profile,
                                     std::vector<simnet::IpAddress> root_hints)
    : host_{host},
      profile_{std::move(profile)},
      root_hints_{std::move(root_hints)},
      client_{host} {}

std::uint64_t RecursiveResolver::resolve(const DnsName& qname, RrType qtype,
                                         Handler handler) {
  const std::uint64_t id = next_job_id_++;
  Job& job = jobs_[id];
  job.id = id;
  job.qname = qname;
  job.qtype = qtype;
  job.handler = std::move(handler);

  job.overall_timer = host_.network().loop().schedule_after(
      kOverallTimeout, [this, id] {
        QueryOutcome out;
        out.error = "overall timeout";
        finish(id, std::move(out));
      });

  start_iteration(id);
  return id;
}

void RecursiveResolver::start_iteration(std::uint64_t job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.done) return;
  Job& job = it->second;

  // Seed the server pool with the root.
  job.zone = DnsName{};  // root
  NsServerInfo root;
  root.name = DnsName::must_parse("root-server.lab");
  for (const auto& addr : root_hints_) {
    (addr.is_v4() ? root.v4 : root.v6).push_back(addr);
  }
  job.servers = {std::move(root)};

  job.family_chosen = false;
  job.packets_this_family = 0;
  job.total_attempts = 0;
  send_main_query(job_id);
}

std::optional<simnet::Endpoint> RecursiveResolver::pick_address(Job& job) {
  std::vector<simnet::IpAddress> v4;
  std::vector<simnet::IpAddress> v6;
  for (const auto& server : job.servers) {
    v4.insert(v4.end(), server.v4.begin(), server.v4.end());
    v6.insert(v6.end(), server.v6.begin(), server.v6.end());
  }
  // Respect transport capability (both ours and the host's addressing).
  if (!profile_.ipv6_transport_capable ||
      !host_.address(simnet::Family::kIpv6)) {
    v6.clear();
  }
  if (!host_.address(simnet::Family::kIpv4)) v4.clear();
  if (v4.empty() && v6.empty()) return std::nullopt;

  if (!job.family_chosen) {
    if (v6.empty()) {
      job.family = simnet::Family::kIpv4;
    } else if (v4.empty()) {
      job.family = simnet::Family::kIpv6;
    } else {
      job.family = host_.network().rng().chance(profile_.ipv6_probability)
                       ? simnet::Family::kIpv6
                       : simnet::Family::kIpv4;
    }
    job.family_chosen = true;
    job.packets_this_family = 0;
    job.timeout = profile_.attempt_timeout;
  }

  const auto& pool = job.family == simnet::Family::kIpv6 ? v6 : v4;
  if (pool.empty()) {
    // Chosen family has no addresses; fall back to the other one.
    job.family = simnet::other_family(job.family);
    job.packets_this_family = 0;
    job.timeout = profile_.attempt_timeout;
    const auto& fallback =
        job.family == simnet::Family::kIpv6 ? v6 : v4;
    if (fallback.empty()) return std::nullopt;
    return simnet::Endpoint{
        fallback[static_cast<std::size_t>(job.packets_this_family) %
                 fallback.size()],
        53};
  }
  return simnet::Endpoint{
      pool[static_cast<std::size_t>(job.packets_this_family) % pool.size()],
      53};
}

void RecursiveResolver::send_main_query(std::uint64_t job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.done) return;
  Job& job = it->second;

  const auto target = pick_address(job);
  if (!target) {
    QueryOutcome out;
    out.error = "no usable name server address";
    finish(job_id, std::move(out));
    return;
  }

  DnsClientOptions copts;
  copts.timeout = job.timeout;
  copts.attempts = 1;

  ++job.packets_this_family;
  ++job.total_attempts;

  job.client_handle = client_.query(
      *target, job.qname, job.qtype, copts,
      [this, job_id](const QueryOutcome& outcome) {
        if (outcome.ok || outcome.rcode == Rcode::kNxDomain) {
          on_main_response(job_id, outcome);
        } else {
          on_main_timeout(job_id);
        }
      });
}

void RecursiveResolver::on_main_timeout(std::uint64_t job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.done) return;
  Job& job = it->second;

  if (job.total_attempts >= profile_.max_total_attempts) {
    QueryOutcome out;
    out.error = "exhausted retries";
    finish(job_id, std::move(out));
    return;
  }

  // Decide whether to retry the same family or switch.
  bool retry_same = false;
  if (profile_.stick_to_family) {
    retry_same = true;
  } else if (job.packets_this_family < profile_.max_packets_per_family) {
    const double p = profile_.retry_same_family_prob;
    retry_same = p >= 1.0 || (p > 0.0 && host_.network().rng().chance(p));
  }

  if (retry_same) {
    if (profile_.backoff_factor > 1.0) {
      job.timeout = SimTime{static_cast<std::int64_t>(
          static_cast<double>(job.timeout.count()) * profile_.backoff_factor)};
    }
    send_main_query(job_id);
    return;
  }

  // Switch family.
  job.family = simnet::other_family(job.family);
  job.packets_this_family = 0;
  job.timeout = profile_.attempt_timeout;
  send_main_query(job_id);
}

void RecursiveResolver::on_main_response(std::uint64_t job_id,
                                         const QueryOutcome& outcome) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.done) return;
  Job& job = it->second;

  // Deferred AAAA acquisition (Google-style): the child auth has now been
  // contacted; issue the NS AAAA query for the record books.
  if (profile_.ns_query_strategy == NsQueryStrategy::kAaaaAfterFirstUse &&
      !job.servers.empty() && !job.zone.is_root() &&
      !job.servers.front().name.is_root()) {
    NsServerInfo& primary = job.servers.front();
    if (!primary.deferred_aaaa_sent) {
      primary.deferred_aaaa_sent = true;
      const auto target = pick_address(job);
      if (target) {
        DnsClientOptions copts;
        copts.timeout = kNsQueryTimeout;
        copts.attempts = 1;
        client_.query(*target, primary.name, RrType::kAaaa, copts,
                      [](const QueryOutcome&) {});
      }
    }
  }

  const DnsMessage& msg = outcome.response;

  if (outcome.rcode == Rcode::kNxDomain) {
    finish(job_id, outcome);
    return;
  }

  // Answer present?
  if (!msg.answers.empty()) {
    msg.addresses_for_into(job.qname, job.qtype, answer_addrs_);
    if (!answer_addrs_.empty() || msg.has_answer_for(job.qname, job.qtype)) {
      finish(job_id, outcome);
      return;
    }
    // CNAME without the target type in the same message: chase it.
    for (const auto& rr : msg.answers) {
      if (rr.name == job.qname) {
        if (const auto* cn = std::get_if<CnameRdata>(&rr.rdata)) {
          if (++job.cname_chase > kMaxCnameChase) {
            QueryOutcome out;
            out.error = "CNAME chain too long";
            finish(job_id, std::move(out));
            return;
          }
          job.qname = cn->target;
          start_iteration(job_id);
          return;
        }
      }
    }
    // Unrelated answer records: treat as the final response.
    finish(job_id, outcome);
    return;
  }

  // Referral?
  bool has_ns = false;
  for (const auto& rr : msg.authorities) {
    if (rr.type == RrType::kNs) {
      has_ns = true;
      break;
    }
  }
  if (has_ns) {
    handle_referral(job_id, msg);
    return;
  }

  // NODATA (possibly with SOA): definitive empty answer.
  finish(job_id, outcome);
}

void RecursiveResolver::handle_referral(std::uint64_t job_id,
                                        const DnsMessage& response) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.done) return;
  Job& job = it->second;

  if (++job.delegation_depth > kMaxDelegationDepth) {
    QueryOutcome out;
    out.error = "delegation too deep";
    finish(job_id, std::move(out));
    return;
  }

  DnsName new_zone;
  std::vector<NsServerInfo> pool;
  for (const auto& rr : response.authorities) {
    if (rr.type != RrType::kNs) continue;
    new_zone = rr.name;
    NsServerInfo info;
    info.name = std::get<NsRdata>(rr.rdata).ns;
    for (const auto& glue : response.additionals) {
      if (glue.name != info.name) continue;
      if (const auto addr = glue.address()) {
        (addr->is_v4() ? info.v4 : info.v6).push_back(*addr);
      }
    }
    pool.push_back(std::move(info));
  }
  if (pool.empty() || new_zone == job.zone ||
      !new_zone.is_subdomain_of(job.zone)) {
    QueryOutcome out;
    out.error = "lame referral";
    finish(job_id, std::move(out));
    return;
  }

  job.zone = new_zone;
  job.servers = std::move(pool);
  job.family_chosen = false;
  job.packets_this_family = 0;
  job.total_attempts = 0;

  acquire_ns_addresses(job_id);
}

void RecursiveResolver::acquire_ns_addresses(std::uint64_t job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.done) return;
  Job& job = it->second;

  NsServerInfo& primary = job.servers.front();
  const bool has_glue = !primary.v4.empty() || !primary.v6.empty();

  const auto strategy = profile_.ns_query_strategy;
  const bool explicit_queries =
      strategy != NsQueryStrategy::kGlueOnly &&
      strategy != NsQueryStrategy::kAaaaAfterFirstUse;

  if (!explicit_queries) {
    if (!has_glue && strategy != NsQueryStrategy::kGlueOnly) {
      // Still need at least one address: fall through to explicit queries.
    } else {
      send_main_query(job_id);
      return;
    }
  }

  // Where to send the NS-name address queries: the child zone is
  // authoritative for its (in-bailiwick) NS names; use glue when present.
  simnet::IpAddress target_addr;
  if (!primary.v4.empty() && host_.address(simnet::Family::kIpv4)) {
    target_addr = primary.v4.front();
  } else if (!primary.v6.empty() && profile_.ipv6_transport_capable &&
             host_.address(simnet::Family::kIpv6)) {
    target_addr = primary.v6.front();
  } else {
    // No glue at all: we cannot reach the child; give up (our lab topology
    // always provides glue, so this indicates a broken delegation).
    QueryOutcome out;
    out.error = "no glue for in-bailiwick NS";
    finish(job_id, std::move(out));
    return;
  }
  const simnet::Endpoint target{target_addr, 53};

  std::vector<RrType> types;
  switch (strategy) {
    case NsQueryStrategy::kAaaaThenA:
      types = {RrType::kAaaa, RrType::kA};
      break;
    case NsQueryStrategy::kAThenAaaa:
      types = {RrType::kA, RrType::kAaaa};
      break;
    case NsQueryStrategy::kEitherOr:
      types = {global_either_or_toggle_ ? RrType::kA : RrType::kAaaa};
      global_either_or_toggle_ = !global_either_or_toggle_;
      break;
    case NsQueryStrategy::kGlueOnly:
    case NsQueryStrategy::kAaaaAfterFirstUse:
      types = {};
      break;
  }
  if (types.empty()) {
    send_main_query(job_id);
    return;
  }

  job.pending_ns_queries = static_cast<int>(types.size());
  const DnsName ns_name = primary.name;

  // Guard timer: proceed with whatever we have if responses are slow. This
  // is what surfaces resolver-side Resolution-Delay-like behaviour.
  job.ns_timer = host_.network().loop().schedule_after(
      kNsQueryTimeout, [this, job_id] {
        auto jit = jobs_.find(job_id);
        if (jit == jobs_.end() || jit->second.done) return;
        if (jit->second.pending_ns_queries <= 0) return;
        jit->second.pending_ns_queries = 0;
        send_main_query(job_id);
      });

  auto issue = [this, job_id, ns_name](const simnet::Endpoint& target,
                                       RrType type) {
    DnsClientOptions copts;
    copts.timeout = kNsQueryTimeout;
    copts.attempts = 1;
    client_.query(
        target, ns_name, type, copts,
        [this, job_id, ns_name, type](const QueryOutcome& outcome) {
          auto jit = jobs_.find(job_id);
          if (jit == jobs_.end() || jit->second.done) return;
          Job& j = jit->second;
          if (outcome.ok) {
            for (const auto& section :
                 {&outcome.response.answers, &outcome.response.additionals}) {
              for (const auto& rr : *section) {
                if (rr.name != ns_name) continue;
                if (const auto addr = rr.address()) {
                  for (auto& server : j.servers) {
                    if (server.name != ns_name) continue;
                    auto& list = addr->is_v4() ? server.v4 : server.v6;
                    if (std::find(list.begin(), list.end(), *addr) ==
                        list.end()) {
                      list.push_back(*addr);
                    }
                  }
                }
              }
            }
          }
          if (j.pending_ns_queries > 0 && --j.pending_ns_queries == 0) {
            host_.network().loop().cancel(j.ns_timer);
            send_main_query(job_id);
          }
        });
  };

  if (profile_.parallel_ns_queries && types.size() == 2) {
    // DNS0.EU-style: the two queries ride different transport families when
    // possible (Table 3 footnote 1 — the relative delay is unmeasurable).
    simnet::Endpoint second_target = target;
    if (!primary.v6.empty() && profile_.ipv6_transport_capable &&
        host_.address(simnet::Family::kIpv6) &&
        target.addr.family() == simnet::Family::kIpv4) {
      second_target = simnet::Endpoint{primary.v6.front(), 53};
    } else if (!primary.v4.empty() &&
               host_.address(simnet::Family::kIpv4) &&
               target.addr.family() == simnet::Family::kIpv6) {
      second_target = simnet::Endpoint{primary.v4.front(), 53};
    }
    issue(target, types[0]);
    issue(second_target, types[1]);
    return;
  }

  // Ordered: issue the first immediately and the second right after (they
  // are distinct packets and the auth log preserves the order).
  for (const RrType type : types) issue(target, type);
}

void RecursiveResolver::finish(std::uint64_t job_id, QueryOutcome outcome) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.done) return;
  Job& job = it->second;
  job.done = true;

  host_.network().loop().cancel(job.overall_timer);
  host_.network().loop().cancel(job.ns_timer);
  if (job.client_handle != 0) client_.cancel(job.client_handle);

  if (!outcome.ok && outcome.rcode == Rcode::kNoError &&
      !outcome.error.empty()) {
    outcome.rcode = Rcode::kServFail;
  }

  Handler handler = std::move(job.handler);
  jobs_.erase(it);
  handler(outcome);
}

}  // namespace lazyeye::dns
