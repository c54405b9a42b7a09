// Mirror cells: the traced run rebuilds a sample of testbed, fault and
// schedule cells from the same public constructors testbed.cc and
// checker.cc use, with a span around each layer's calls, and must reproduce
// the executor's record exactly. The per-layer ledger sums what the spans
// and the layers' public counters report.
#pragma once

#include <cstdint>

#include "clients/profiles.h"
#include "common.h"
#include "conformance/checker.h"
#include "testbed/testbed.h"
#include "trace.h"

namespace perf {

/// Per-layer totals over the mirror cells of one traced run.
struct LayerLedger {
  double cells = 0;
  double fetches = 0;
  // simnet
  double build_ns = 0, build_allocs = 0, teardown_ns = 0;
  double run_ns = 0, run_allocs = 0, events = 0;
  double wheel_scheduled = 0, heap_scheduled = 0;
  double sent = 0, delivered = 0, blackholed = 0, dropped = 0;
  // dns (decoding every DNS payload the client captured)
  double messages = 0, decode_ns = 0, decode_allocs = 0, decode_rejects = 0;
  double decode_bytes_per_wire_byte_max = 0;
  // transport / he / capture
  double attempts = 0, syn_retransmits = 0, established = 0;
  double trace_events = 0, trace_detail_bytes = 0;
  double capture_packets = 0, analysis_ns = 0, analysis_allocs = 0;
  // conformance rules (fault and schedule cells only)
  double rule_cells = 0, rules_ns = 0, rules_allocs = 0, violations = 0;

  /// Emits the simnet/dns/transport/he/capture/conformance-rule metrics.
  void emit(Report& report) const;
};

/// testbed.cc's cell, rebuilt and traced.
lazyeye::testbed::RunRecord mirror_testbed_cell(
    const lazyeye::clients::ClientProfile& profile,
    const lazyeye::testbed::TestbedOptions& options,
    const lazyeye::campaign::ScenarioSpec& spec, std::uint32_t cell,
    Tracer& tracer, LayerLedger& ledger);

/// checker.cc's fault or schedule cell, rebuilt and traced.
lazyeye::conformance::ConformanceRecord mirror_conformance_cell(
    const lazyeye::clients::ClientProfile& profile,
    const lazyeye::conformance::ConformanceOptions& options,
    const lazyeye::campaign::ScenarioSpec& spec, std::uint32_t cell,
    Tracer& tracer, LayerLedger& ledger);

}  // namespace perf
