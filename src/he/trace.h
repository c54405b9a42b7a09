// Engine-level event trace. The testbed infers behaviour from packet
// captures (black-box, like the paper); the trace exists for API users,
// examples and unit tests that want white-box visibility.
#pragma once

#include <string>
#include <vector>

#include "simnet/ip.h"
#include "util/time.h"

namespace lazyeye::he {

struct HeEvent {
  enum class Type {
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

  Type type;
  SimTime time{0};
  std::string detail;
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
