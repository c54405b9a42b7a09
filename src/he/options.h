// Happy Eyeballs configuration: the Table 1 parameters of HEv1 (RFC 6555)
// and HEv2 (RFC 8305) plus the deviation knobs needed to model real client
// behaviour observed in the paper's measurements. Every client connects
// over TCP: the HEv3 draft's SVCB/HTTPS lookup, QUIC racing and ECH
// preference are implemented by none of the measured clients, so they are
// not options (Chrome's HEv3 flag changes only its DNS handling, §5.2).
// Settings no client, preset or bench varies are not options either:
// address selection keeps DNS order (no client sorts by RTT history).
#pragma once

#include <optional>

#include "transport/tcp.h"
#include "util/result.h"
#include "util/time.h"

namespace lazyeye::he {

/// How the ordered attempt list mixes address families (RFC 8305 §4).
enum class InterlaceMode {
  /// No interlacing: preferred family first, then the other.
  kNone,
  /// Strict alternation after the First Address Family Count block.
  kAlternate,
  /// Safari's observed strategy (paper App. D): FAFC IPv6 addresses, one
  /// IPv4 address, all remaining IPv6, then all remaining IPv4.
  kFirstOtherThenRest,
};

/// RFC 8305's recommended minimum Connection Attempt Delay. Advisory only:
/// the engine clamps a dynamic CAD to DynamicCad::minimum; Table 1 prints
/// this value between the two bounds.
inline constexpr SimTime kRecommendedMinimumCad = lazyeye::ms(100);

/// Dynamic Connection Attempt Delay (HEv2 history-informed mode).
struct DynamicCad {
  bool enabled = false;
  /// RFC 8305 bounds: min 10 ms (absolute), max 2 s.
  SimTime minimum = lazyeye::ms(10);
  SimTime maximum = lazyeye::sec(2);
  /// CAD = clamp(rtt_multiplier * smoothed RTT, minimum, maximum).
  double rtt_multiplier = 2.0;
  /// Used when no RTT history exists (Safari's lab behaviour: 2 s).
  SimTime no_history_default = lazyeye::sec(2);

  /// Effective CAD for a given (optional) RTT estimate.
  SimTime effective(std::optional<SimTime> smoothed_rtt) const;
};

struct HeOptions {
  // ---- DNS phase -----------------------------------------------------------
  /// Issue the AAAA query first, immediately followed by A (RFC 8305 §3).
  bool query_aaaa_first = true;
  /// Resolution Delay: wait this long for AAAA after an A-first response.
  /// nullopt = no RD — the client waits for the resolver's own timeout
  /// (the Chromium/Firefox behaviour in §5.2).
  std::optional<SimTime> resolution_delay = lazyeye::ms(50);
  /// Deviation: delay any connection attempt until the A response arrived,
  /// even when AAAA records are already in hand (§5.2: all but Safari).
  bool wait_for_a_record = false;
  /// Deviation: if the A query fails (resolver timeout), fail the whole
  /// connection even when AAAA succeeded (Chrome/Firefox complete failures
  /// in §5.2). Without this flag, A failure simply means IPv6-only.
  bool fail_on_a_timeout = false;

  // ---- Address selection ---------------------------------------------------
  bool prefer_ipv6 = true;
  /// First Address Family Count (RFC 8305 §4: 1, or 2 when favouring the
  /// first family aggressively).
  int first_address_family_count = 1;
  InterlaceMode interlace = InterlaceMode::kAlternate;
  /// Cap on how many addresses of each family are attempted (Table 2
  /// "Addrs. Used": 1 for Chromium/Firefox/curl, 10 for Safari).
  int max_addresses_per_family = 100;

  // ---- Connection phase ----------------------------------------------------
  /// Fixed Connection Attempt Delay (RFC 6555: 150-250 ms; RFC 8305: 250 ms).
  SimTime connection_attempt_delay = lazyeye::ms(250);
  DynamicCad dynamic_cad;
  /// Disable the IPv4 fallback entirely (wget has no HE: it only ever uses
  /// the preferred family).
  bool fallback_enabled = true;
  /// TCP handshake parameters for each attempt.
  transport::TcpOptions tcp;
  /// Give up after this much time without any established connection.
  SimTime overall_timeout = lazyeye::sec(75);

  // ---- Caching -------------------------------------------------------------
  /// Cache the winning address "on the order of 10 minutes"
  /// (RFC 6555 §4.1). Zero disables caching.
  SimTime cache_ttl = lazyeye::minutes(10);

  /// Effective CAD for the session (fixed or dynamic).
  SimTime effective_cad(std::optional<SimTime> smoothed_rtt) const;

  /// Sanity-checks the parameter space the engine is about to run with:
  /// first_address_family_count >= 1, max_addresses_per_family >= 1,
  /// non-negative resolution_delay (when set) and connection_attempt_delay,
  /// and a positive overall timeout. The engine validates at session start
  /// and surfaces a configuration error instead of silently misbehaving
  /// (an FAFC of 0 would starve the attempt plan; a negative delay would
  /// fire its timer in the past and drag virtual time backwards).
  Status validate() const;

  // Presets matching the RFC recommendations (Table 1).
  static HeOptions rfc6555();
  static HeOptions rfc8305();
  /// No Happy Eyeballs: resolve, use preferred family only.
  static HeOptions none();
};

}  // namespace lazyeye::he
