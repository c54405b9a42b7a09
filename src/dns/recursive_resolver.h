// Recursive resolver engine: iterative resolution from root hints with
// profile-driven IP version preference and fallback behaviour.
//
// The engine is observed only on the wire: it keeps no log of its own. Every
// packet it emits crosses the simulated network and lands in the
// authoritative servers' query logs, which is where the resolver study
// (paper §5.3) takes all of its measurements. It has no stub-facing port:
// callers (the resolver lab) call resolve() directly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "dns/client.h"
#include "dns/resolver_profile.h"

namespace lazyeye::dns {

/// A name server with its (possibly partial) address knowledge.
struct NsServerInfo {
  DnsName name;
  std::vector<simnet::IpAddress> v4;
  std::vector<simnet::IpAddress> v6;
  /// Set once the deferred (Google-style) AAAA query has been issued.
  bool deferred_aaaa_sent = false;
};

class RecursiveResolver {
 public:
  using Handler = std::function<void(const QueryOutcome&)>;

  /// `root_hints`: addresses of the root name server(s).
  RecursiveResolver(simnet::Host& host, ResolverProfile profile,
                    std::vector<simnet::IpAddress> root_hints);

  RecursiveResolver(const RecursiveResolver&) = delete;
  RecursiveResolver& operator=(const RecursiveResolver&) = delete;

  /// Resolves qname/qtype iteratively; invokes handler exactly once.
  std::uint64_t resolve(const DnsName& qname, RrType qtype, Handler handler);

  const ResolverProfile& profile() const { return profile_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    DnsName qname;
    RrType qtype = RrType::kA;
    Handler handler;

    std::vector<NsServerInfo> servers;  // current delegation's servers
    DnsName zone;                       // current delegation owner

    // NS-address acquisition state.
    int pending_ns_queries = 0;
    simnet::TimerId ns_timer;
    int delegation_depth = 0;

    // Attempt state for the current zone.
    simnet::Family family = simnet::Family::kIpv4;
    bool family_chosen = false;
    int packets_this_family = 0;
    int total_attempts = 0;
    SimTime timeout{0};

    std::uint64_t client_handle = 0;
    simnet::TimerId overall_timer;
    int cname_chase = 0;
    bool done = false;
  };

  void start_iteration(std::uint64_t job_id);
  void send_main_query(std::uint64_t job_id);
  void on_main_response(std::uint64_t job_id, const QueryOutcome& outcome);
  void on_main_timeout(std::uint64_t job_id);
  void handle_referral(std::uint64_t job_id, const DnsMessage& response);
  void acquire_ns_addresses(std::uint64_t job_id);
  void finish(std::uint64_t job_id, QueryOutcome outcome);

  /// Picks the next (family, address) to contact; nullopt => no usable
  /// address at all.
  std::optional<simnet::Endpoint> pick_address(Job& job);

  simnet::Host& host_;
  ResolverProfile profile_;
  std::vector<simnet::IpAddress> root_hints_;
  DnsClient client_;
  std::map<std::uint64_t, Job> jobs_;
  /// Addresses of the last main response's answer; reused across responses.
  std::vector<simnet::IpAddress> answer_addrs_;
  bool global_either_or_toggle_ = false;
  std::uint64_t next_job_id_ = 1;
};

}  // namespace lazyeye::dns
