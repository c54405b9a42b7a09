// Declarative description of one measurement run (one cell of a scenario
// matrix).
//
// A ScenarioSpec is the shared envelope every cell carries — dense id,
// per-cell seed, repetition, client — plus a typed payload (case.h) holding
// exactly the parameters of its measurement case. It holds nothing an
// executor does not read: tables and progress lines are written from the
// id, case name and client at the edge that prints them.
// Because each cell owns its world and its seed, cells can run in any order
// on any number of workers and still produce byte-identical results; and
// because the payload is a closed variant, one matrix can mix case kinds
// (testbed CAD cells next to resolver-lab cells) and an executor registry
// can dispatch on the payload type alone.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "campaign/case.h"
#include "util/rng.h"
#include "util/time.h"

namespace lazyeye::campaign {

struct ScenarioSpec {
  /// Dense index of this cell in its campaign's matrix; doubles as the
  /// result slot, so aggregation order never depends on worker scheduling.
  std::uint64_t id = 0;

  /// Per-cell seed. The executor derives every RNG in the cell's world from
  /// this value (directly or through world_seed()/client_seed()), never from
  /// shared mutable state — that is what makes sharding deterministic.
  std::uint64_t seed = 1;

  int repetition = 0;

  /// Client profile display name ("" when the case has no client). Part of
  /// the envelope rather than a payload field so multi-client batches can
  /// mix profiles within one kind, and executors resolve the profile from
  /// their registered pool.
  std::string client;

  /// The measurement case this cell runs (typed; see case.h).
  CasePayload payload = CadCase{};

  /// Discriminator of the payload (registries index executor tables by it).
  CaseKind kind() const { return static_cast<CaseKind>(payload.index()); }

  /// Payload accessor: nullptr when the cell holds a different case type.
  template <typename C>
  const C* get_if() const {
    return std::get_if<C>(&payload);
  }

  /// Independent streams derived from `seed` for executors that need more
  /// than one generator per cell (world netem vs client behaviour).
  std::uint64_t world_seed() const { return derive(0x9e3779b9ULL); }
  std::uint64_t client_seed() const { return derive(0xc2b2ae35ULL); }

 private:
  std::uint64_t derive(std::uint64_t stream) const {
    SplitMix64 mix{seed ^ (stream * 0xd6e8feb86659fd93ULL)};
    return mix.next();
  }
};

}  // namespace lazyeye::campaign
