// Local testbed framework (paper §4.3 (i), App. B).
//
// Two directly connected nodes (client and server), tc-netem style shaping
// on the server side, a custom authoritative DNS server with qname-encoded
// test parameters, a web server answering with the client's source address,
// and a packet capture on the client node. Every run starts from a fresh
// network and a fresh client ("drop and create a new container") so no
// caching effects leak between configurations.
//
// Runs are described declaratively as campaign cells (typed payloads:
// CadCase / ResolutionDelayCase / AddressSelectionCase): the spec
// generators below allocate seeds, and run_spec() is a stateless executor
// that builds the cell's isolated world (TwoNodeWorld, world.h) —
// which is what lets whole delay × repetition × client matrices shard
// across the CampaignRunner worker pool with byte-identical results at any
// worker count. register_executors() plugs the three testbed case types
// into a campaign::Registry; a sweep is multi_client_cad_stream() run
// through that registry, alone or in a mixed-kind matrix.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/scenario.h"
#include "campaign/spec_stream.h"
#include "capture/analysis.h"
#include "clients/client.h"
#include "clients/profiles.h"

namespace lazyeye::testbed {

struct SweepSpec {
  SimTime from{0};
  SimTime to{0};
  SimTime step{0};

  /// Grid points from..to inclusive. Degenerate specs (step <= 0, or an
  /// empty to < from range) collapse to the single point `from` instead of
  /// looping forever / yielding nothing.
  std::vector<SimTime> values() const;

  /// The paper's fine-grained CAD sweep: 0..400 ms in 5 ms steps.
  static SweepSpec fine_cad() { return {lazyeye::ms(0), lazyeye::ms(400), lazyeye::ms(5)}; }
};

/// One test-run record (one client, one configuration, one repetition).
struct RunRecord {
  std::string client;
  SimTime configured_delay{0};
  int repetition = 0;

  bool fetch_ok = false;
  std::optional<simnet::Family> established_family;
  std::optional<SimTime> observed_cad;       // first v4 SYN - first v6 SYN
  std::optional<SimTime> observed_rd;        // v4 SYN - A response gap
  std::optional<SimTime> a_wait_gap;         // v6 SYN - A response gap
  bool aaaa_query_first = false;
  int v6_addresses_used = 0;                  // distinct destinations
  int v4_addresses_used = 0;
  std::vector<simnet::Family> attempt_sequence;
  SimTime completion_time{0};
};

struct TestbedOptions {
  std::uint64_t seed = 1;
  /// The client's stub resolver timeout ("resolver configuration" §5.2).
  std::optional<SimTime> dns_timeout_override;
};

/// Builds one fresh scenario per run and measures through the client-side
/// capture only (black-box, as in the paper).
class LocalTestbed {
 public:
  explicit LocalTestbed(TestbedOptions options = {});

  /// CAD test case: dual-stack target, IPv6 delayed by `v6_delay` at the
  /// server's egress (tc-netem equivalent).
  RunRecord run_cad_case(const clients::ClientProfile& profile,
                         SimTime v6_delay, int repetition = 0);

  /// RD test case: the authoritative server delays `delayed_type` answers
  /// by `dns_delay` (encoded in the qname like the paper's server).
  RunRecord run_rd_case(const clients::ClientProfile& profile,
                        dns::RrType delayed_type, SimTime dns_delay,
                        int repetition = 0);

  /// Address selection test case: `per_family` unresponsive addresses per
  /// family (paper: 10 + 10).
  RunRecord run_address_selection_case(const clients::ClientProfile& profile,
                                       int per_family, int repetition = 0);

  // ---- Campaign cells ----------------------------------------------------
  // Spec generators allocate each cell's run id (nonce + seed) from the
  // testbed's counter, so mixing one-off cases and sweeps never reuses a
  // world seed or a DNS nonce name.

  campaign::ScenarioSpec cad_spec(const clients::ClientProfile& profile,
                                  SimTime v6_delay, int repetition = 0);
  campaign::ScenarioSpec rd_spec(const clients::ClientProfile& profile,
                                 dns::RrType delayed_type, SimTime dns_delay,
                                 int repetition = 0);
  campaign::ScenarioSpec address_selection_spec(
      const clients::ClientProfile& profile, int per_family,
      int repetition = 0);

  // ---- Lazy spec stream --------------------------------------------------
  // Matrices are generated on demand per claimed cell, so a matrix of any
  // size never sits in memory. The factory reserves its whole run-counter
  // range up front.

  /// The delay × repetition CAD matrix of every profile in one campaign
  /// (profile-major, then delay-major, repetition-minor — the same counter
  /// sequence as generating each profile's sweep back to back). Ids are
  /// dense across the joint matrix. A one-profile call is a solo sweep.
  campaign::SpecStream multi_client_cad_stream(
      std::vector<clients::ClientProfile> profiles, const SweepSpec& sweep,
      int repetitions = 1);

  /// Stateless executor: builds the isolated simnet world described by
  /// `spec` (seeded from spec.seed), runs it, and analyses the capture.
  /// Thread-safe: concurrent calls on different specs never share state.
  RunRecord run_spec(const clients::ClientProfile& profile,
                     const campaign::ScenarioSpec& spec) const;

 private:
  campaign::ScenarioSpec base_spec(const clients::ClientProfile& profile,
                                   int repetition);

  TestbedOptions options_;
  std::uint64_t run_counter_ = 0;
};

/// Plugs the three testbed case types (CAD, RD, address selection) into a
/// campaign registry. Cells carry the client display name in their
/// envelope; it is resolved against `profiles` — the campaign's client pool
/// — so one matrix can batch several client profiles. `bed` must outlive
/// the registry; the pool is copied into the executors.
template <typename Outcome>
void register_executors(campaign::Registry<Outcome>& registry,
                        const LocalTestbed& bed,
                        std::vector<clients::ClientProfile> profiles) {
  auto pool = std::make_shared<const std::vector<clients::ClientProfile>>(
      std::move(profiles));
  auto resolve =
      [pool](const campaign::ScenarioSpec& spec) -> const clients::ClientProfile& {
    return campaign::find_registered(
        *pool, spec.client,
        [](const clients::ClientProfile& p) { return p.display_name_view(); },
        "testbed");
  };
  // One executor body serves all three case types: run_spec() dispatches on
  // the payload itself.
  auto execute = [&bed, resolve](const campaign::ScenarioSpec& spec,
                                 const auto& /*case payload*/) {
    return bed.run_spec(resolve(spec), spec);
  };
  registry.template add<campaign::CadCase>(execute);
  registry.template add<campaign::ResolutionDelayCase>(execute);
  registry.template add<campaign::AddressSelectionCase>(execute);
}

}  // namespace lazyeye::testbed
