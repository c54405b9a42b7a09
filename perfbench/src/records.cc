#include "records.h"

#include <cinttypes>
#include <cstdio>
#include <optional>

#include "conformance/record_codec.h"

namespace perf {

using lazyeye::SimTime;
using lazyeye::simnet::Family;

namespace {

void put_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64 " ", v);
  out += buf;
}

void put_time(std::string& out, const std::optional<SimTime>& t) {
  if (t) {
    put_int(out, t->count());
  } else {
    out += "- ";
  }
}

void put_family(std::string& out, const std::optional<Family>& f) {
  out += !f ? "- " : *f == Family::kIpv6 ? "6 " : "4 ";
}

}  // namespace

void append_text(std::string& out, const lazyeye::testbed::RunRecord& r) {
  out += "tb ";
  out += r.client;
  out += '|';
  put_int(out, r.configured_delay.count());
  put_int(out, r.repetition);
  put_int(out, r.fetch_ok ? 1 : 0);
  put_family(out, r.established_family);
  put_time(out, r.observed_cad);
  put_time(out, r.observed_rd);
  put_time(out, r.a_wait_gap);
  put_int(out, r.aaaa_query_first ? 1 : 0);
  put_int(out, r.v6_addresses_used);
  put_int(out, r.v4_addresses_used);
  for (const Family f : r.attempt_sequence) put_family(out, f);
  put_int(out, r.completion_time.count());
  out += '\n';
}

void append_text(std::string& out,
                 const lazyeye::webtool::RepetitionOutcome& r) {
  out += "web ";
  for (const auto& f : r.families) put_family(out, f);
  put_int(out, r.inconsistent ? 1 : 0);
  out += '\n';
}

void append_text(std::string& out,
                 const lazyeye::resolverlab::RunObservation& r) {
  out += "res ";
  put_int(out, r.configured_delay.count());
  put_int(out, r.repetition);
  put_int(out, r.resolved ? 1 : 0);
  put_int(out, r.completed.count());
  put_int(out, r.v6_main_queries);
  put_int(out, r.v4_main_queries);
  put_int(out, r.first_query_v6 ? 1 : 0);
  put_int(out, r.answer_via_v6 ? 1 : 0);
  put_int(out, r.aaaa_ns_seen ? 1 : 0);
  put_int(out, r.a_ns_seen ? 1 : 0);
  put_int(out, r.aaaa_before_a ? 1 : 0);
  put_int(out, r.aaaa_before_main ? 1 : 0);
  put_int(out, r.ns_queries_parallel ? 1 : 0);
  out += '\n';
}

void append_text(std::string& out, const MixedOutcome& outcome) {
  std::visit([&out](const auto& r) { append_text(out, r); }, outcome);
}

void append_text(std::string& out,
                 const lazyeye::conformance::ConformanceRecord& r) {
  lazyeye::conformance::encode_record(r, out);
}

}  // namespace perf
