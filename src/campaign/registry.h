// campaign::Registry — pluggable executor table keyed by case payload type.
//
// Layers *register* a typed executor per case payload, and one Registry
// drives any matrix — including mixed-kind matrices such as all Table 3
// resolver services in one worker pool, or a multi-client testbed batch
// next to resolver cells.
//
// The Outcome parameter is what executors return. Single-layer campaigns
// use the layer's record type directly (Registry<RunRecord>); mixed-kind
// campaigns use a variant of the record types involved (executors'
// return values convert implicitly into the variant).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "campaign/case.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"

namespace lazyeye::campaign {

/// Linear-scans a registered pool (client profiles, service profiles, ...)
/// for the element whose `name(elem)` equals `wanted`. Executors resolve
/// spec-carried names against the pool their layer registered with; an
/// unknown name is a campaign configuration error.
template <typename Pool, typename NameFn>
const typename Pool::value_type& find_registered(const Pool& pool,
                                                 const std::string& wanted,
                                                 NameFn name,
                                                 const char* what) {
  for (const auto& element : pool) {
    if (name(element) == wanted) return element;
  }
  throw std::invalid_argument(std::string{what} + " executor: '" + wanted +
                              "' is not in the registered pool");
}

template <typename Outcome>
class Registry {
 public:
  using Executor = std::function<Outcome(const ScenarioSpec&)>;

  /// Registers the executor for case payload type C. `fn` is invoked as
  /// fn(spec, c) where c is the spec's C payload; it must be stateless per
  /// call (it may run concurrently on *different* specs) and its return
  /// value must convert to Outcome. Re-registering a type replaces the
  /// previous executor.
  template <typename C, typename Fn>
  void add(Fn fn) {
    executors_[case_index<C>] =
        [fn = std::move(fn)](const ScenarioSpec& spec) -> Outcome {
      return fn(spec, std::get<C>(spec.payload));
    };
  }

  bool has(CaseKind kind) const {
    const auto i = static_cast<std::size_t>(kind);
    return i < executors_.size() && static_cast<bool>(executors_[i]);
  }

  /// Executes one cell by dispatching on its payload type. Throws
  /// std::invalid_argument when no executor is registered for the kind.
  Outcome execute(const ScenarioSpec& spec) const {
    const Executor& executor = executors_[spec.payload.index()];
    if (!executor) {
      throw std::invalid_argument(
          std::string{"campaign::Registry: no executor registered for case '"} +
          case_name(spec.payload) + "'");
    }
    return executor(spec);
  }

  /// Streams a lazy matrix through `runner` into `sink` (spec-order
  /// delivery; see sink.h). There is no pre-launch executor check
  /// (enumerating the stream would defeat its point): a cell whose kind has
  /// no registered executor fails mid-run via execute()'s
  /// std::invalid_argument.
  void run(const CampaignRunner& runner, const SpecStream& specs,
           ResultSink<Outcome>& sink) const {
    runner.run_streaming<Outcome>(
        specs, [this](const ScenarioSpec& spec) { return execute(spec); },
        sink);
  }

  /// Materialised-matrix overload: every kind present in `specs` is checked
  /// for a registered executor *before* the pool launches, so a
  /// misconfigured campaign fails fast on the calling thread instead of
  /// mid-run.
  void run(const CampaignRunner& runner, const std::vector<ScenarioSpec>& specs,
           ResultSink<Outcome>& sink) const {
    for (const ScenarioSpec& spec : specs) {
      if (!has(spec.kind())) {
        throw std::invalid_argument(
            std::string{"campaign::Registry: matrix contains case '"} +
            case_name(spec.payload) + "' but no executor is registered");
      }
    }
    run(runner, SpecStream::view(specs), sink);
  }

 private:
  std::array<Executor, kCaseKindCount> executors_{};
};

}  // namespace lazyeye::campaign
