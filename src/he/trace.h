// Engine-level event trace. The testbed infers behaviour from packet
// captures (black-box, like the paper); the trace exists for API users,
// examples and unit tests that want white-box visibility.
//
// An event records values, not text: its HeDetail holds the RR type, count,
// duration, endpoint or error its sentence needs, and text() renders that
// sentence only when a reader asks, so a fetch formats nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/rr.h"
#include "simnet/ip.h"
#include "util/time.h"

namespace lazyeye::he {

enum class HeEventType : std::uint8_t {
  kCacheHit,
  kDnsQuerySent,
  kDnsResponse,
  kDnsError,
  kResolutionDelayStarted,
  kResolutionDelayExpired,
  kAddressSelectionDone,
  kAttemptStarted,
  kAttemptFailed,
  kConnectionEstablished,
  kFailed,
};

/// What one event's sentence is made of. Each type reads only its fields:
///   cache-hit          endpoint.addr            "2001:db8::80"
///   dns-query          -                        "AAAA then A"
///   dns-response       rr_type, count           "AAAA: 1 records"
///   dns-error          rr_type, error           "A: all servers failed"
///   rd-start           duration                 "50ms"
///   rd-expired         -                        ""
///   address-selection  count                    "2 attempts planned"
///   attempt-start      endpoint                 "[2001:db8::80]:443"
///   attempt-failed     endpoint, error          "10.0.0.80:443: refused"
///   established        endpoint                 "10.0.0.80:443"
///   failed             error                    "overall timeout"
/// The error is set on failure paths only.
struct HeDetail {
  HeEventType type = HeEventType::kFailed;
  dns::RrType rr_type = dns::RrType::kA;
  std::uint64_t count = 0;
  SimTime duration{0};
  simnet::Endpoint endpoint;
  std::string error;

  /// The event's sentence.
  std::string text() const;
  /// text().size(), without building the text.
  std::size_t size() const;
};

struct HeEvent {
  using Type = HeEventType;

  Type type;
  SimTime time{0};
  HeDetail detail;
  simnet::IpAddress address;  // meaningful for attempt/connection events
};

const char* he_event_type_name(HeEvent::Type type);

using HeTrace = std::vector<HeEvent>;

struct HeResult {
  bool ok = false;
  std::string error;
  simnet::Endpoint remote;
  SimTime started{0};
  SimTime completed{0};
  /// Connection id on the client's TcpStack, 0 if failed.
  std::uint64_t connection_id = 0;
  HeTrace trace;

  SimTime elapsed() const { return completed - started; }
  simnet::Family family() const { return remote.addr.family(); }
};

}  // namespace lazyeye::he
