// Canonical text of every cell outcome the benchmark checks. Digests and
// mirror-vs-executor comparisons both go through these, so "equal" means
// equal in every field the record carries.
#pragma once

#include <string>
#include <variant>

#include "conformance/checker.h"
#include "resolverlab/lab.h"
#include "testbed/testbed.h"
#include "webtool/webtool.h"

namespace perf {

using MixedOutcome = std::variant<lazyeye::testbed::RunRecord,
                                  lazyeye::webtool::RepetitionOutcome,
                                  lazyeye::resolverlab::RunObservation>;

void append_text(std::string& out, const lazyeye::testbed::RunRecord& r);
void append_text(std::string& out, const lazyeye::webtool::RepetitionOutcome& r);
void append_text(std::string& out, const lazyeye::resolverlab::RunObservation& r);
void append_text(std::string& out, const MixedOutcome& outcome);
/// Byte form of a conformance record (the journal codec's encoding).
void append_text(std::string& out,
                 const lazyeye::conformance::ConformanceRecord& r);

template <typename R>
std::string text_of(const R& record) {
  std::string out;
  append_text(out, record);
  return out;
}

}  // namespace perf
