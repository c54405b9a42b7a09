// FaultInjector: one seeded FaultPlan run as a one-entry always-on schedule
// (TimedFault{plan}) by ScheduleInjector (schedule.h), the only code that
// installs and runs fault hooks. It holds no hook code of its own and reads
// no clock; conformance cells build a ScheduleInjector directly, and this
// adapter stays only because perfbench's mirror builds it.
#pragma once

#include "conformance/fault.h"
#include "conformance/schedule.h"

namespace lazyeye::conformance {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan)
      : entry_{plan}, injector_{{&entry_, 1}, /*clock=*/nullptr} {}

  /// Install hooks on the layers this plan's kind targets. No-ops (leaving
  /// the stack's hook unset) when the kind lives elsewhere.
  void attach(dns::AuthServer& server) { injector_.attach(server); }
  void attach(transport::TcpStack& tcp) { injector_.attach(tcp); }
  void attach(transport::QuicStack& quic) { injector_.attach(quic); }

 private:
  TimedFault entry_;
  ScheduleInjector injector_;
};

}  // namespace lazyeye::conformance
