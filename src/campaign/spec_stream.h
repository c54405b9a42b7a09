// SpecStream: lazily-generated scenario matrices.
//
// A million-cell sweep does not need a million materialised ScenarioSpecs
// sitting in a vector before the first cell runs — every layer's spec
// generator is a pure function of the cell index (seed arithmetic and a
// payload), so a campaign can carry just (count, index -> spec) and let
// each worker build the specs it claims on demand. A streaming campaign then
// holds specs only for cells that are running or parked in the reorder
// buffer; unclaimed cells cost nothing. Every consumer (runner, reorder
// buffer, journal replay) reads cells through at(), whatever backs the
// stream.
//
// The generator MUST be pure and thread-safe: workers call at(i) from
// several threads, in claim order, and the reorder path may never re-derive
// a spec it already generated differently. The layer stream factories
// (testbed::LocalTestbed::multi_client_cad_stream, webtool::WebTool::
// campaign_spec_stream, resolverlab::cross_service_cell_spec_stream) satisfy
// this by computing seeds from the index alone.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "campaign/scenario.h"

namespace lazyeye::campaign {

class SpecStream {
 public:
  using Generator = std::function<ScenarioSpec(std::size_t)>;

  SpecStream(std::size_t count, Generator generate)
      : count_{count}, generate_{std::move(generate)} {}

  /// Non-owning adapter over a materialised matrix (`specs` must outlive
  /// the stream); at(i) copies cell i out of it.
  static SpecStream view(const std::vector<ScenarioSpec>& specs) {
    SpecStream stream{specs.size(),
                      [&specs](std::size_t i) { return specs[i]; }};
    stream.backing_ = &specs;
    return stream;
  }

  /// Owning adapter: moves the matrix into the stream.
  static SpecStream of(std::vector<ScenarioSpec> specs) {
    auto owned = std::make_shared<const std::vector<ScenarioSpec>>(
        std::move(specs));
    SpecStream stream{owned->size(),
                      [owned](std::size_t i) { return (*owned)[i]; }};
    stream.backing_ = owned.get();
    return stream;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Generates cell i (thread-safe; see the purity contract above).
  ScenarioSpec at(std::size_t i) const { return generate_(i); }

  /// The materialised matrix behind a view()/of() stream, nullptr for a
  /// generated one; valid exactly as long as at() is. The campaign layer
  /// never reads it: at() is its one path to a cell.
  const std::vector<ScenarioSpec>* backing() const { return backing_; }

 private:
  std::size_t count_;
  Generator generate_;
  const std::vector<ScenarioSpec>* backing_ = nullptr;
};

}  // namespace lazyeye::campaign
