// Typed measurement-case payloads.
//
// Every experiment in this repo is a matrix of heterogeneous cells: the
// testbed's CAD/RD/address-selection runs (Figure 2), the web tool's
// repetition passes (Figure 4), the resolver lab's (delay, repetition)
// cells (Table 3). Each case has its own payload struct held in a
// std::variant, so a cell carries exactly the parameters its executor
// reads — and a matrix can mix kinds freely (a multi-client testbed batch
// next to all Table 3 services in one worker pool). A case's name and kind
// are its alternative index: one name table, one enum, both tied to the
// variant at compile time.
#pragma once

#include <cstddef>
#include <iterator>
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
/// `delay_index` is `v6_delay`'s position in the lab's delay grid; with the
/// repetition it names the cell's zone (z<delay_index>r<repetition>.lab).
struct ResolverCellCase {
  std::string service;
  SimTime v6_delay{0};
  int delay_index = 0;
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

// CaseKind values and variant indices must stay aligned: ScenarioSpec::kind()
// is a plain index cast.
static_assert(case_index<CadCase> == static_cast<std::size_t>(CaseKind::kCad));
static_assert(case_index<ResolutionDelayCase> ==
              static_cast<std::size_t>(CaseKind::kResolutionDelay));
static_assert(case_index<AddressSelectionCase> ==
              static_cast<std::size_t>(CaseKind::kAddressSelection));
static_assert(case_index<WebRepetitionCase> ==
              static_cast<std::size_t>(CaseKind::kWebRepetition));
static_assert(case_index<ResolverCellCase> ==
              static_cast<std::size_t>(CaseKind::kResolverCell));
static_assert(case_index<ConformanceCase> ==
              static_cast<std::size_t>(CaseKind::kConformance));
static_assert(case_index<ScheduleCase> ==
              static_cast<std::size_t>(CaseKind::kSchedule));

/// Case names, indexed by CasePayload alternative. The size assert makes a
/// new alternative without a name fail to compile.
inline constexpr const char* kCaseNames[] = {
    "cad",           "rd",          "addr-selection", "webtool-rep",
    "resolver-cell", "conformance", "schedule"};
static_assert(std::size(kCaseNames) == kCaseKindCount);

inline const char* case_name(const CasePayload& payload) {
  return kCaseNames[payload.index()];
}

}  // namespace lazyeye::campaign
