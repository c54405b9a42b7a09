// Per-cell setup/teardown allocation regression test.
//
// The arena/pool cell-lifecycle overhaul brought one warm small-cell CAD run
// (build world, one fetch, tear down) from ~406 heap allocations to ~80.
// This test holds that win with a count-based gate, the same approach as the
// PR 5 zero-alloc data-path check: global operator new counting, a warm-up
// phase that fills the thread's scenario pool / buffer pools / DNS message
// pools to their high-water marks, then a measured run of cells. The same
// gate holds a single-fault conformance cell, compound-schedule cells, with
// and without malformed DNS wire, and a resolver-lab cell. A byte counter beside the call counter
// also bounds what decoding malformed DNS wire, conformance records and
// fault schedules may allocate. A warm DNS encode into a pooled buffer and a
// warm DNS decode into a scratch message must allocate nothing at all, and
// neither may copying a lab-sized name or decoding a response inside a warm
// cell world.
// Counting (not timing) keeps the gates deterministic on 1-core CI runners
// and under sanitizers.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/fault.h"
#include "conformance/record_codec.h"
#include "conformance/schedule.h"
#include "conformance/search.h"
#include "dns/message.h"
#include "dns/message_pool.h"
#include "dns/name.h"
#include "dns/test_params.h"
#include "dns_fixtures.h"
#include "resolverlab/lab.h"
#include "resolvers/service_profiles.h"
#include "simnet/buffer.h"
#include "testbed/testbed.h"
#include "testbed/world.h"
#include "util/rng.h"
#include "util/wire.h"
#include "webtool/webtool.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

// Out of line: inlined where a new-expression's pointer is deleted, these
// bodies pair scalar new with delete[] and new with free(), which GCC 12
// reports (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lazyeye {
namespace {

// Every gate allows its measured warm count plus this slack for library
// variation, without letting a per-cell cost creep back in.
constexpr std::uint64_t kSlack = 1;

// 30x under the ~406-allocation baseline the overhaul started from. A warm
// CAD cell measures 13 (Release and ASan+UBSan) on GCC 12.2; its "delay v6"
// netem rule is stored in the world's arena, the two-node world itself sits
// on the executor's stack, the HE session's address, selection and attempt
// vectors are arena-backed, and its trace records typed details, not text.
constexpr std::uint64_t kCadCellBudget = 13 + kSlack;

// A single-fault conformance cell (kTcpReset on Chrome, two fetches)
// measures 19 warm (Release and ASan+UBSan) on GCC 12.2 / libstdc++:
// its verdicts are fixed-width values, and it keeps the first fetch's
// outcome as one flag instead of a copy of the whole result.
constexpr std::uint64_t kFaultCellBudget = 19 + kSlack;

// A compound-schedule cell (generated schedules without malformed-DNS
// entries, two fetches on Chrome) measures 23 warm (Release and ASan+UBSan)
// on GCC 12.2 / libstdc++.
constexpr std::uint64_t kScheduleCellBudget = 23 + kSlack;

// A compound-schedule cell whose schedule truncates or corrupts DNS wire
// (same generator, same client) measures 24 warm (Release and ASan+UBSan)
// on GCC 12.2 / libstdc++.
constexpr std::uint64_t kMalformedDnsCellBudget = 24 + kSlack;

// A resolver-lab cell (BIND over the paper grid: root, TLD and auth
// servers, the recursive engine, one resolution) measures 33 warm (Release
// and ASan+UBSan Debug) on GCC 12.2 / libstdc++; the LabRun holding the
// world sits on the executor's stack.
constexpr std::uint64_t kResolverCellBudget = 33 + kSlack;

// A web-tool repetition (paper-default CAD test on Chrome: 18 delay
// buckets, one persistent client, 18 fetches in one two-node world)
// measures 47 warm (Release and ASan+UBSan) on GCC 12.2 / libstdc++: the
// HE sessions' vectors and the outcome cache's nodes draw from the world's
// arena, a rebuilt attempt plan is edited in place from the session's
// selection scratch, the trace formats no text, the fetch's completion
// callable fits std::function's small buffer, and the echoed address is
// compared as bytes.
constexpr std::uint64_t kWebToolRepetitionBudget = 47 + kSlack;

// Decoding one malformed wire into a fresh DnsMessage may allocate at most
// this many bytes per wire byte; the seeded corpus below peaks at 10.2
// (768 bytes for a 75-byte wire; a ResourceRecord is 232 bytes with its
// inline names).
// A decoder that sizes storage from header counts instead of input length
// blows through it by orders of magnitude. The conformance record and fault
// schedule decoders are held to the same bound; their corpus peaks at 1.1
// (records) and 1.3 (schedules).
constexpr std::uint64_t kDecodeBytesPerWireByte = 24;

constexpr int kWarmupCells = 16;
constexpr int kMeasuredCells = 32;

/// Runs `cell(0..kWarmupCells-1)` to grow the pooled arenas, buffer pools
/// and thread-local DNS message pools to the workload's high-water marks,
/// then returns the mean allocations of the next kMeasuredCells cells. A
/// batch (not a single cell) lets one-off lazy initialisations hiding in
/// libraries average out instead of failing a gate flakily.
template <typename Cell>
std::uint64_t warm_allocations_per_cell(Cell&& cell) {
  for (int i = 0; i < kWarmupCells; ++i) cell(i);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasuredCells; ++i) cell(kWarmupCells + i);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return (after - before) / kMeasuredCells;
}

/// The first `count` generated hunt-style schedules, in index order, that
/// truncate or corrupt DNS wire (`malformed_dns`) or never do.
std::vector<conformance::FaultSchedule> generated_schedules(
    std::size_t count, bool malformed_dns) {
  std::vector<conformance::FaultSchedule> schedules;
  for (std::uint32_t index = 0; schedules.size() < count; ++index) {
    conformance::FaultSchedule schedule =
        conformance::FaultSchedule::generate(7, 0, index);
    const bool malformed = std::any_of(
        schedule.entries.begin(), schedule.entries.end(),
        [](const conformance::TimedFault& entry) {
          return entry.plan.kind == conformance::FaultKind::kDnsTruncate ||
                 entry.plan.kind == conformance::FaultKind::kDnsCorrupt;
        });
    if (malformed == malformed_dns) schedules.push_back(std::move(schedule));
  }
  return schedules;
}

/// Bytes allocated while `fn` runs.
template <typename Fn>
std::uint64_t allocated_bytes(Fn&& fn) {
  const std::uint64_t before =
      g_allocated_bytes.load(std::memory_order_relaxed);
  fn();
  return g_allocated_bytes.load(std::memory_order_relaxed) - before;
}

/// Warm allocations per replayed schedule cell on Chrome.
std::uint64_t warm_schedule_cell_allocations(bool malformed_dns) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const conformance::ConformanceHarness harness;
  const auto schedules =
      generated_schedules(kWarmupCells + kMeasuredCells, malformed_dns);
  return warm_allocations_per_cell([&](int i) {
    harness.replay_schedule(profile, schedules[static_cast<std::size_t>(i)]);
  });
}

/// A response whose one answer is a TXT record of `strings` empty
/// character-strings: its rdata is `strings` zero bytes.
std::vector<std::uint8_t> empty_strings_txt_wire(std::uint16_t strings) {
  std::vector<std::uint8_t> wire;
  for (const std::uint16_t field : {1, 0x8000, 0, 1, 0, 0}) {
    wire::put_u16(wire, field);  // id, flags (QR), one answer
  }
  dns::DnsName::must_parse("txt.lab").encode(wire, nullptr);
  wire::put_u16(wire, static_cast<std::uint16_t>(dns::RrType::kTxt));
  wire::put_u16(wire, 1);  // class IN
  wire::put_u32(wire, 60);
  wire::put_u16(wire, strings);
  wire.resize(wire.size() + strings, 0);
  return wire;
}

/// The seeded malformed-DNS corpus: truncations and corruptions of every
/// lab-shaped response (the conformance injector's mutators and seeds),
/// random garbage, and TXT answers whose every rdata byte is an empty
/// character-string (a string object per string would cost up to 77 bytes
/// per wire byte).
std::vector<std::vector<std::uint8_t>> malformed_dns_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  SplitMix64 truncate{
      conformance::FaultPlan{conformance::FaultKind::kDnsTruncate}.rng_seed()};
  SplitMix64 corrupt{
      conformance::FaultPlan{conformance::FaultKind::kDnsCorrupt}.rng_seed()};
  for (const auto& pristine : dns::fixtures::lab_responses()) {
    for (int i = 0; i < 100; ++i) {
      corpus.push_back(pristine);
      conformance::truncate_wire(corpus.back(), truncate);
      corpus.push_back(pristine);
      conformance::corrupt_wire(corpus.back(), corrupt);
    }
  }
  SplitMix64 garbage{12345};
  for (int i = 0; i < 400; ++i) {
    corpus.push_back(conformance::garbage_wire(garbage));
  }
  for (const std::uint16_t strings : {16, 64, 400}) {
    corpus.push_back(empty_strings_txt_wire(strings));
  }
  return corpus;
}

/// Malformed inputs for the record and schedule codecs.
struct CodecCorpus {
  std::vector<std::string> records;
  std::vector<std::string> schedules;
};

/// Seeded truncations and corruptions (the DNS corpus's mutators) of the
/// encodings of real cells, plus a record and a schedule that end right
/// after a count claiming the most entries each decoder accepts.
CodecCorpus malformed_codec_corpus() {
  using conformance::FaultKind;
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const conformance::ConformanceHarness harness;
  std::vector<std::string> records;
  std::vector<std::string> schedules;
  for (const FaultKind kind :
       {FaultKind::kNone, FaultKind::kDnsCorrupt, FaultKind::kTcpReset}) {
    records.push_back(conformance::encode_record(
        harness.replay(profile, conformance::FaultPlan{kind})));
  }
  for (std::uint32_t index = 0; index < 4; ++index) {
    const auto schedule = conformance::FaultSchedule::generate(7, 0, index);
    schedules.push_back(conformance::encode_schedule(schedule));
    const auto record = harness.replay_schedule(profile, schedule);
    records.push_back(conformance::encode_record(record));
    // The form a hunt candidate journals its records in.
    std::string shared_schedule;
    conformance::encode_record(record, shared_schedule,
                               /*with_schedule=*/false);
    records.push_back(std::move(shared_schedule));
  }

  SplitMix64 rng{2024};
  const auto mutate = [&rng](const std::vector<std::string>& pristine) {
    std::vector<std::string> out;
    for (const std::string& bytes : pristine) {
      for (int i = 0; i < 100; ++i) {
        for (const auto mutator :
             {conformance::truncate_wire, conformance::corrupt_wire}) {
          std::vector<std::uint8_t> wire(bytes.begin(), bytes.end());
          mutator(wire, rng);
          out.emplace_back(wire.begin(), wire.end());
        }
      }
    }
    return out;
  };
  CodecCorpus corpus{mutate(records), mutate(schedules)};

  std::string record = conformance::encode_record({});
  record.resize(record.size() - 1);
  wire::put_u8(record, 255);
  corpus.records.push_back(record);
  std::string schedule = conformance::encode_schedule({});
  schedule.resize(schedule.size() - 4);
  wire::put_u32(schedule, 64);
  corpus.schedules.push_back(schedule);
  return corpus;
}

TEST(CellAllocTest, WarmSmallCellStaysUnderBudget) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  testbed::LocalTestbed bed;
  const std::uint64_t per_cell = warm_allocations_per_cell(
      [&](int i) { bed.run_cad_case(profile, ms(50), i); });
  EXPECT_LE(per_cell, kCadCellBudget)
      << "warm per-cell allocations regressed: " << per_cell << " > budget "
      << kCadCellBudget;
}

TEST(CellAllocTest, WarmSingleFaultCellStaysUnderBudget) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  const conformance::ConformanceHarness harness;
  const std::uint64_t per_cell = warm_allocations_per_cell([&](int i) {
    conformance::FaultPlan plan;
    plan.kind = conformance::FaultKind::kTcpReset;
    plan.index = static_cast<std::uint32_t>(i);
    harness.replay(profile, plan);
  });
  EXPECT_LE(per_cell, kFaultCellBudget)
      << "warm single-fault cell allocations regressed: " << per_cell
      << " > budget " << kFaultCellBudget;
}

TEST(CellAllocTest, WarmScheduleCellStaysUnderBudget) {
  const std::uint64_t per_cell =
      warm_schedule_cell_allocations(/*malformed_dns=*/false);
  EXPECT_LE(per_cell, kScheduleCellBudget)
      << "warm schedule cell allocations regressed: " << per_cell
      << " > budget " << kScheduleCellBudget;
}

TEST(CellAllocTest, WarmMalformedDnsScheduleCellStaysUnderBudget) {
  const std::uint64_t per_cell =
      warm_schedule_cell_allocations(/*malformed_dns=*/true);
  EXPECT_LE(per_cell, kMalformedDnsCellBudget)
      << "warm malformed-DNS schedule cell allocations regressed: "
      << per_cell << " > budget " << kMalformedDnsCellBudget;
}

TEST(CellAllocTest, WarmResolverCellStaysUnderBudget) {
  const resolvers::ServiceProfile service =
      resolvers::local_software_profiles().front();
  const campaign::SpecStream cells =
      resolverlab::cross_service_cell_spec_stream(
          {service}, resolverlab::LabConfig::paper_grid());
  // Stride 8 through the 126-cell grid: the warm-up and each third of the
  // measured cells span every delay.
  const std::uint64_t per_cell = warm_allocations_per_cell([&](int i) {
    resolverlab::run_cell(
        service, cells.at(static_cast<std::size_t>(i) * 8 % cells.size()));
  });
  EXPECT_LE(per_cell, kResolverCellBudget)
      << "warm resolver-lab cell allocations regressed: " << per_cell
      << " > budget " << kResolverCellBudget;
}

TEST(CellAllocTest, WarmWebToolRepetitionStaysUnderBudget) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  webtool::WebToolConfig config = webtool::WebToolConfig::paper_default();
  config.repetitions = kWarmupCells + kMeasuredCells;
  const webtool::WebTool tool{config};
  const campaign::SpecStream cells = tool.campaign_spec_stream(
      profile, /*rd_mode=*/false, dns::RrType::kAaaa);
  const std::uint64_t per_cell = warm_allocations_per_cell([&](int i) {
    tool.run_repetition(profile, cells.at(static_cast<std::size_t>(i)));
  });
  EXPECT_LE(per_cell, kWebToolRepetitionBudget)
      << "warm web-tool repetition allocations regressed: " << per_cell
      << " > budget " << kWebToolRepetitionBudget;
}

TEST(CellAllocTest, MalformedDnsDecodeIsBoundedByWireLength) {
  const auto corpus = malformed_dns_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::vector<std::uint8_t>& wire = corpus[i];
    const std::uint64_t bytes = allocated_bytes([&] {
      dns::DnsMessage fresh;
      (void)dns::DnsMessage::decode_into(wire, fresh);
    });
    EXPECT_LE(bytes, kDecodeBytesPerWireByte * wire.size())
        << "corpus wire " << i << " (" << wire.size() << " bytes)";
  }
}

TEST(CellAllocTest, MalformedRecordAndScheduleDecodeIsBoundedByInputLength) {
  const CodecCorpus corpus = malformed_codec_corpus();
  // The two count-only inputs: no verdict or entry bytes follow the count.
  ASSERT_EQ(corpus.records.back().size(), 38u);
  ASSERT_EQ(corpus.schedules.back().size(), 20u);
  for (std::size_t i = 0; i < corpus.records.size(); ++i) {
    const std::string& bytes = corpus.records[i];
    const std::uint64_t allocated =
        allocated_bytes([&] { (void)conformance::decode_record(bytes); });
    EXPECT_LE(allocated, kDecodeBytesPerWireByte * bytes.size())
        << "corpus record " << i << " (" << bytes.size() << " bytes)";
  }
  for (std::size_t i = 0; i < corpus.schedules.size(); ++i) {
    const std::string& bytes = corpus.schedules[i];
    const std::uint64_t allocated =
        allocated_bytes([&] { (void)conformance::decode_schedule(bytes); });
    EXPECT_LE(allocated, kDecodeBytesPerWireByte * bytes.size())
        << "corpus schedule " << i << " (" << bytes.size() << " bytes)";
  }
}

/// Hand-built capture evidence that walks every rule down a path that
/// prints durations, counts or families: violations, racing passes and an
/// abandoned family.
std::vector<conformance::RuleContext> rule_contexts() {
  const auto attempt = [](SimTime at, const char* addr) {
    capture::ConnectionAttempt a;
    a.first_syn = at;
    a.last_syn = at;
    a.remote = {simnet::IpAddress::must_parse(addr), 443};
    return a;
  };
  const auto exchange = [](dns::RrType qtype, SimTime at, SimTime answered) {
    capture::DnsExchange ex;
    ex.qtype = qtype;
    ex.query_time = at;
    ex.response_time = answered;
    ex.answer_count = 1;
    return ex;
  };
  conformance::RuleContext raced;
  raced.fetches = 2;
  raced.first_fetch_ok = true;
  raced.first_fetch_completed = ms(5);
  raced.v4_candidates = 2;
  raced.v6_candidates = 2;
  raced.dns = {exchange(dns::RrType::kA, ms(0), ms(10)),
               exchange(dns::RrType::kAaaa, ms(0), ms(200))};
  raced.attempts = {attempt(ms(20), "10.0.0.10"),
                    attempt(ms(22), "10.0.0.11")};
  raced.first_a_response = ms(10);
  raced.first_aaaa_response = ms(200);
  raced.first_v4_syn = ms(20);

  conformance::RuleContext won = raced;
  won.attempts = {attempt(ms(0), "2001:db8::10"), attempt(ms(50), "10.0.0.10")};
  won.attempts[0].established = true;
  won.attempts[1].last_syn = ms(500);
  won.established = simnet::Family::kIpv6;
  won.established_time = ms(100);
  won.first_v4_syn = ms(70);
  won.first_aaaa_response.reset();
  return {raced, won};
}

TEST(CellAllocTest, RuleEvaluationAllocatesOnlyItsVerdicts) {
  for (const conformance::RuleContext& ctx : rule_contexts()) {
    const auto warm = conformance::evaluate_rules(ctx);
    ASSERT_GT(warm[1].evidence.count, 0u);  // a printed count, not a stub
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    const auto verdicts = conformance::evaluate_rules(ctx);
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(verdicts, warm);
    EXPECT_LE(after - before, 1u)
        << "evaluate_rules allocated beyond its verdict vector";
  }
}

TEST(CellAllocTest, CoverageSignatureAllocatesOncePerCandidate) {
  // One candidate: a generated schedule against every testbed profile.
  const auto profiles = clients::local_testbed_profiles();
  const conformance::ConformanceHarness harness;
  const auto schedule = conformance::FaultSchedule::generate(7, 0, 3);
  std::vector<conformance::ConformanceRecord> records;
  for (const auto& profile : profiles) {
    records.push_back(harness.replay_schedule(profile, schedule));
  }
  const auto warm = conformance::coverage_signature(records);
  constexpr int kRounds = 32;
  bool same = true;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    same = conformance::coverage_signature(records) == warm && same;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(same);
  EXPECT_LE(after - before, static_cast<std::uint64_t>(kRounds))
      << "coverage_signature allocated more than its element vector";
}

TEST(CellAllocTest, WarmDnsEncodeIntoAllocatesNothing) {
  // A lab-shaped response: 1 question, 2 AAAA answers, 1 NS authority.
  dns::DnsMessage msg;
  msg.header.id = 0x4242;
  msg.header.qr = true;
  const auto name = dns::DnsName::must_parse("www.he-test.lab");
  msg.questions.push_back({name, dns::RrType::kAaaa});
  msg.answers.push_back(dns::ResourceRecord::aaaa(
      name, *simnet::Ipv6Address::parse("2001:db8::80")));
  msg.answers.push_back(dns::ResourceRecord::aaaa(
      name, *simnet::Ipv6Address::parse("2001:db8::81")));
  msg.authorities.push_back(dns::ResourceRecord::ns(
      dns::DnsName::must_parse("he-test.lab"),
      dns::DnsName::must_parse("ns1.he-test.lab")));
  const std::vector<std::uint8_t> expected = msg.encode();

  // The DnsClient/AuthServer hot path: a pooled output buffer and a
  // retained compressor. The first encode grows both.
  simnet::BufferPool pool;
  simnet::Buffer wire{&pool};
  dns::NameCompressor compressor;
  msg.encode_into(wire, compressor);

  constexpr int kEncodes = 1000;
  bool identical = true;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kEncodes; ++i) {
    msg.encode_into(wire, compressor);
    identical = identical && std::equal(wire.span().begin(), wire.span().end(),
                                        expected.begin(), expected.end());
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(identical) << "encode_into wire differs from encode()";
  EXPECT_EQ(after - before, 0u)
      << "warm encode_into touched the heap (" << (after - before)
      << " allocations over " << kEncodes << " encodes)";
}

TEST(CellAllocTest, WarmDnsDecodeIntoAllocatesNothing) {
  // The same lab-shaped response: 1 question, 2 AAAA answers, 1 NS
  // authority. Names and the NS rdata decode into the scratch's buffers.
  dns::DnsMessage msg;
  msg.header.id = 0x4242;
  msg.header.qr = true;
  const auto name = dns::DnsName::must_parse("www.he-test.lab");
  msg.questions.push_back({name, dns::RrType::kAaaa});
  msg.answers.push_back(dns::ResourceRecord::aaaa(
      name, *simnet::Ipv6Address::parse("2001:db8::80")));
  msg.answers.push_back(dns::ResourceRecord::aaaa(
      name, *simnet::Ipv6Address::parse("2001:db8::81")));
  msg.authorities.push_back(dns::ResourceRecord::ns(
      dns::DnsName::must_parse("he-test.lab"),
      dns::DnsName::must_parse("ns1.he-test.lab")));
  const std::vector<std::uint8_t> wire = msg.encode();

  // The DnsClient/AuthServer receive path: one scratch message. The first
  // decode grows it.
  dns::DnsMessage scratch;
  ASSERT_TRUE(dns::DnsMessage::decode_into(wire, scratch));

  constexpr int kDecodes = 1000;
  bool ok = true;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kDecodes; ++i) {
    ok = dns::DnsMessage::decode_into(wire, scratch) && ok;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(ok);
  EXPECT_EQ(scratch, msg);
  EXPECT_EQ(after - before, 0u)
      << "warm decode_into touched the heap (" << (after - before)
      << " allocations over " << kDecodes << " decodes)";
}

TEST(CellAllocTest, WarmCellWorldCopiesNamesAndDecodesResponsesOffTheHeap) {
  // Warm this thread's pools with real cells, then stand inside one more
  // cell's world: the names it serves sit past libstdc++'s 15-byte
  // small-string buffer, so only inline DnsName storage keeps copying them
  // (query log, zone records, response sections, capture exchanges) and
  // decoding responses that carry them off the heap.
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  testbed::LocalTestbed bed;
  for (int i = 0; i < kWarmupCells; ++i) bed.run_cad_case(profile, ms(50), i);
  const testbed::TwoNodeWorld world{
      profile, dns::DnsName::must_parse("cad.he-test.lab"),
      testbed::cell_net_seed(1, kWarmupCells),
      testbed::cell_client_seed(1, kWarmupCells)};
  const dns::DnsName& origin = world.zone->origin();
  const dns::DnsName qname = dns::make_test_name(
      origin, "123456", {{dns::RrType::kAaaa, ms(300)}});
  ASSERT_GT(qname.wire_length(), 16u);
  ASSERT_LE(qname.wire_length(), dns::DnsName::kInlineBytes + 1);

  const auto response = [&](dns::RrType type) {
    dns::DnsMessage msg = dns::fixtures::response(7, qname, type);
    msg.header.aa = true;
    msg.answers.push_back(
        type == dns::RrType::kA
            ? dns::ResourceRecord::a(
                  qname, *simnet::Ipv4Address::parse("192.0.2.1"))
            : dns::ResourceRecord::aaaa(
                  qname, *simnet::Ipv6Address::parse("2001:db8::1")));
    return msg.encode();
  };
  const std::vector<std::uint8_t> a_wire = response(dns::RrType::kA);
  const std::vector<std::uint8_t> aaaa_wire = response(dns::RrType::kAaaa);
  dns::PooledMessage scratch;
  ASSERT_TRUE(dns::DnsMessage::decode_into(aaaa_wire, *scratch));

  constexpr int kRounds = 100;
  bool ok = true;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    dns::DnsName copy = qname;
    copy = origin;
    copy = scratch->questions.front().name;
    ok = dns::DnsMessage::decode_into(i % 2 == 0 ? a_wire : aaaa_wire,
                                      *scratch) &&
         ok && copy == qname;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(ok);
  EXPECT_EQ(scratch->answers.front().name, qname);
  EXPECT_EQ(after - before, 0u)
      << "name copies or warm response decodes in a cell world touched the "
         "heap ("
      << (after - before) << " allocations over " << kRounds << " rounds)";
}

// The run itself must still mean something: a cell that silently stopped
// doing work would pass any allocation gate.
TEST(CellAllocTest, MeasuredCellsProduceRealRuns) {
  const auto profile = clients::chromium_profile("Chrome", "130.0", "10-2024");
  testbed::LocalTestbed bed;
  const auto record = bed.run_cad_case(profile, ms(50), 0);
  EXPECT_TRUE(record.fetch_ok);
  EXPECT_TRUE(record.established_family.has_value());
}

}  // namespace
}  // namespace lazyeye
