// Typed measurement-case payloads.
//
// Every experiment in this repo is a matrix of heterogeneous cells: the
// testbed's CAD/RD/address-selection runs (Figure 2), the web tool's
// repetition passes (Figure 4), the resolver lab's (delay, repetition)
// cells (Table 3). Each case has its own payload struct held in a
// std::variant, so a cell carries exactly the parameters its executor
// reads — and a matrix can mix kinds freely (a multi-client testbed batch
// next to all Table 3 services in one worker pool).
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>
#include <variant>

#include "conformance/fault.h"
#include "conformance/schedule.h"
#include "dns/rr.h"
#include "util/time.h"

namespace lazyeye::campaign {

/// Dual-stack target, IPv6 path delayed at the server's egress
/// (tc-netem equivalent; Figure 2 sweeps).
struct CadCase {
  SimTime v6_delay{0};
};

/// The authoritative server delays the DNS answer of `delayed_type` by
/// `dns_delay` (qname-encoded, like the paper's server; §5.2).
struct ResolutionDelayCase {
  dns::RrType delayed_type = dns::RrType::kAaaa;
  SimTime dns_delay{0};
};

/// `per_family` unresponsive addresses per family (paper: 10 + 10).
struct AddressSelectionCase {
  int per_family = 0;
};

/// One web-tool repetition: a full pass over the 18-bucket delay grid with
/// a persistent client. `rd_mode` shapes the DNS answer of `delayed_type`
/// per bucket instead of the IPv6 path.
struct WebRepetitionCase {
  bool rd_mode = false;
  dns::RrType delayed_type = dns::RrType::kAaaa;
};

/// One resolver-lab (delay, repetition) cell against `service`'s engine.
struct ResolverCellCase {
  std::string service;
  SimTime v6_delay{0};
};

/// One adversarial conformance cell: a seeded fault plan run against the
/// envelope's client, with the RFC 8305 rule set evaluated over the
/// client-side capture. `fetches` = 2 also exercises the cache-respecting
/// restart rule (the second fetch reuses the session's winner cache).
struct ConformanceCase {
  conformance::FaultPlan fault;
  int fetches = 1;
};

/// One compound-schedule conformance cell: several windowed/triggered
/// faults (conformance/schedule.h) against the envelope's client, rules
/// evaluated like a ConformanceCase. Generated schedules replay from their
/// (seed, stream, index) triple; mutated ones through the schedule codec.
struct ScheduleCase {
  conformance::FaultSchedule schedule;
  int fetches = 1;
};

/// The closed set of case payloads a ScenarioSpec can carry. Adding an
/// alternative here is the *only* step that opens a new case kind; every
/// switch/name table below is tied to this list at compile time.
using CasePayload = std::variant<CadCase, ResolutionDelayCase,
                                 AddressSelectionCase, WebRepetitionCase,
                                 ResolverCellCase, ConformanceCase,
                                 ScheduleCase>;

/// Discriminator mirroring CasePayload's alternative order (executor
/// registries index their tables by it).
enum class CaseKind {
  kCad = 0,
  kResolutionDelay,
  kAddressSelection,
  kWebRepetition,
  kResolverCell,
  kConformance,
  kSchedule,
};

inline constexpr std::size_t kCaseKindCount = std::variant_size_v<CasePayload>;

namespace detail {

template <typename C, typename V>
struct IndexOf;
template <typename C, typename... Rest>
struct IndexOf<C, std::variant<C, Rest...>>
    : std::integral_constant<std::size_t, 0> {};
template <typename C, typename Head, typename... Rest>
struct IndexOf<C, std::variant<Head, Rest...>>
    : std::integral_constant<std::size_t,
                             1 + IndexOf<C, std::variant<Rest...>>::value> {};

}  // namespace detail

/// CasePayload alternative index of case type C (compile error for types
/// that are not alternatives).
template <typename C>
inline constexpr std::size_t case_index = detail::IndexOf<C, CasePayload>::value;

/// Per-case compile-time metadata. A payload type without a specialisation
/// cannot be named or registered — adding a CasePayload alternative without
/// extending this table fails to compile instead of reporting stale data.
template <typename C>
struct CaseTraits;

template <>
struct CaseTraits<CadCase> {
  static constexpr CaseKind kKind = CaseKind::kCad;
  static constexpr const char* kName = "cad";
};
template <>
struct CaseTraits<ResolutionDelayCase> {
  static constexpr CaseKind kKind = CaseKind::kResolutionDelay;
  static constexpr const char* kName = "rd";
};
template <>
struct CaseTraits<AddressSelectionCase> {
  static constexpr CaseKind kKind = CaseKind::kAddressSelection;
  static constexpr const char* kName = "addr-selection";
};
template <>
struct CaseTraits<WebRepetitionCase> {
  static constexpr CaseKind kKind = CaseKind::kWebRepetition;
  static constexpr const char* kName = "webtool-rep";
};
template <>
struct CaseTraits<ResolverCellCase> {
  static constexpr CaseKind kKind = CaseKind::kResolverCell;
  static constexpr const char* kName = "resolver-cell";
};
template <>
struct CaseTraits<ConformanceCase> {
  static constexpr CaseKind kKind = CaseKind::kConformance;
  static constexpr const char* kName = "conformance";
};
template <>
struct CaseTraits<ScheduleCase> {
  static constexpr CaseKind kKind = CaseKind::kSchedule;
  static constexpr const char* kName = "schedule";
};

// CaseKind values, variant indices, and trait kinds must stay aligned:
// kind_of() below is a plain index cast.
static_assert(case_index<CadCase> ==
              static_cast<std::size_t>(CaseTraits<CadCase>::kKind));
static_assert(case_index<ResolutionDelayCase> ==
              static_cast<std::size_t>(CaseTraits<ResolutionDelayCase>::kKind));
static_assert(case_index<AddressSelectionCase> ==
              static_cast<std::size_t>(CaseTraits<AddressSelectionCase>::kKind));
static_assert(case_index<WebRepetitionCase> ==
              static_cast<std::size_t>(CaseTraits<WebRepetitionCase>::kKind));
static_assert(case_index<ResolverCellCase> ==
              static_cast<std::size_t>(CaseTraits<ResolverCellCase>::kKind));
static_assert(case_index<ConformanceCase> ==
              static_cast<std::size_t>(CaseTraits<ConformanceCase>::kKind));
static_assert(case_index<ScheduleCase> ==
              static_cast<std::size_t>(CaseTraits<ScheduleCase>::kKind));

inline CaseKind kind_of(const CasePayload& payload) {
  return static_cast<CaseKind>(payload.index());
}

/// Case name via the traits table: a CasePayload alternative lacking a
/// CaseTraits specialisation makes this visit fail to compile, so names can
/// never go stale.
inline const char* case_name(const CasePayload& payload) {
  return std::visit(
      [](const auto& c) {
        return CaseTraits<std::decay_t<decltype(c)>>::kName;
      },
      payload);
}

}  // namespace lazyeye::campaign
