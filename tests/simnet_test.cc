#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <memory_resource>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "simnet/buffer.h"
#include "simnet/event_loop.h"
#include "simnet/inline_callback.h"
#include "simnet/ip.h"
#include "simnet/netem.h"
#include "simnet/network.h"
#include "util/rng.h"

// ---- global operator-new counting proxy -----------------------------------
// Lets the allocation regression tests below assert that steady-state event
// dispatch and a steady-state UDP round trip perform zero heap allocations.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace lazyeye::simnet {
namespace {

using lazyeye::ms;
using lazyeye::us;

// ---------------------------------------------------------- event loop ----

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(ms(30), [&] { order.push_back(3); });
  loop.schedule_at(ms(10), [&] { order.push_back(1); });
  loop.schedule_at(ms(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), ms(30));
}

TEST(EventLoopTest, FifoForSameTimestamp) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(ms(10), [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime fired{};
  loop.schedule_at(ms(5), [&] {
    loop.schedule_after(ms(10), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, ms(15));
}

TEST(EventLoopTest, PastDeadlineClampsToNow) {
  EventLoop loop;
  loop.run_until(ms(100));
  SimTime fired{};
  loop.schedule_at(ms(1), [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, ms(100));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const TimerId id = loop.schedule_at(ms(10), [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(loop.cancel(id));  // double cancel
}

TEST(EventLoopTest, CancelInvalidIdFails) {
  EventLoop loop;
  EXPECT_FALSE(loop.cancel(TimerId{}));
  EXPECT_FALSE(loop.cancel(TimerId{999}));
}

TEST(EventLoopTest, CancelledEventsLeavePendingImmediately) {
  EventLoop loop;
  std::vector<TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(loop.schedule_at(ms(i), [] {}));
  }
  EXPECT_EQ(loop.pending(), 100u);
  for (const TimerId id : ids) EXPECT_TRUE(loop.cancel(id));
  EXPECT_EQ(loop.pending(), 0u);
  // Cancelled heap entries are pruned as they surface; none executes.
  loop.run();
  EXPECT_EQ(loop.processed(), 0u);
}

TEST(EventLoopTest, CancelBookkeepingDoesNotAccumulateAcrossRounds) {
  // Long campaigns schedule + cancel endlessly (retransmit timers etc.);
  // after each drained round no cancellation bookkeeping may survive.
  EventLoop loop;
  for (int round = 0; round < 50; ++round) {
    const TimerId keep = loop.schedule_after(ms(1), [] {});
    const TimerId drop = loop.schedule_after(ms(2), [] {});
    EXPECT_TRUE(loop.cancel(drop));
    (void)keep;
    loop.run();
    EXPECT_EQ(loop.pending(), 0u);
  }
  EXPECT_EQ(loop.processed(), 50u);
}

TEST(EventLoopTest, RunUntilSkipsCancelledHeadWithoutAdvancingTime) {
  EventLoop loop;
  const TimerId head = loop.schedule_at(ms(5), [] {});
  bool ran = false;
  loop.schedule_at(ms(50), [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(head));
  EXPECT_EQ(loop.run_until(ms(10)), 0u);
  EXPECT_EQ(loop.now(), ms(10));
  EXPECT_FALSE(ran);
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(ms(10), [&] { order.push_back(1); });
  loop.schedule_at(ms(20), [&] { order.push_back(2); });
  loop.schedule_at(ms(30), [&] { order.push_back(3); });
  EXPECT_EQ(loop.run_until(ms(20)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), ms(20));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventLoopTest, RunForAdvancesRelative) {
  EventLoop loop;
  loop.run_for(ms(7));
  EXPECT_EQ(loop.now(), ms(7));
  loop.run_for(ms(3));
  EXPECT_EQ(loop.now(), ms(10));
}

TEST(EventLoopTest, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  loop.schedule_at(ms(1), [&] {
    ++depth;
    loop.schedule_after(ms(1), [&] { ++depth; });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
}

TEST(EventLoopTest, CancelAfterFireReturnsFalse) {
  EventLoop loop;
  int ran = 0;
  const TimerId id = loop.schedule_at(ms(1), [&] { ++ran; });
  loop.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(loop.cancel(id));  // already executed
  EXPECT_FALSE(loop.cancel(id));  // still false on repeat
}

TEST(EventLoopTest, RecycledSlotsDoNotAliasStaleTimerIds) {
  // After a timer fires, its slot is recycled under a bumped
  // generation: a held-over TimerId from the previous occupant must neither
  // cancel nor observe the new timer.
  EventLoop loop;
  int first = 0;
  const TimerId stale = loop.schedule_at(ms(1), [&] { ++first; });
  loop.run();
  ASSERT_EQ(first, 1);

  int second = 0;
  const TimerId fresh = loop.schedule_at(ms(2), [&] { ++second; });
  EXPECT_FALSE(loop.cancel(stale));  // must not hit the recycled slot
  EXPECT_EQ(loop.pending(), 1u);     // fresh timer untouched
  loop.run();
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(loop.cancel(fresh));
}

TEST(EventLoopTest, SlotRecyclingSurvivesHeavyChurn) {
  // Schedule/cancel/fire churn across recycled slots: ids stay unique, no
  // stale handle ever cancels a later timer, and pending() stays exact.
  EventLoop loop;
  std::vector<TimerId> fired_ids;
  int fired = 0;
  for (int round = 0; round < 200; ++round) {
    const TimerId run_me = loop.schedule_after(ms(1), [&] { ++fired; });
    const TimerId drop_me = loop.schedule_after(ms(2), [&] { ++fired; });
    EXPECT_TRUE(loop.cancel(drop_me));
    EXPECT_EQ(loop.pending(), 1u);
    loop.run();
    EXPECT_EQ(loop.pending(), 0u);
    for (const TimerId old : fired_ids) {
      EXPECT_FALSE(loop.cancel(old));  // every historic id stays dead
    }
    if (fired_ids.size() < 8) fired_ids.push_back(run_me);
  }
  EXPECT_EQ(fired, 200);
}

TEST(EventLoopTest, CancelDuringCallbackOfSameTimestampBatch) {
  // A callback cancelling a timer scheduled for the same instant: the
  // cancelled one must not run even though its key is already in the heap.
  EventLoop loop;
  int ran = 0;
  TimerId second{};
  loop.schedule_at(ms(5), [&] { EXPECT_TRUE(loop.cancel(second)); ++ran; });
  second = loop.schedule_at(ms(5), [&] { ran += 100; });
  loop.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.pending(), 0u);
}

// ------------------------------------------------------ inline callback ----

TEST(InlineCallbackTest, SmallCapturesStayInline) {
  int counter = 0;
  InlineFunction<void()> cb{[&counter] { ++counter; }};
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_TRUE(cb.is_inline());
  cb();
  cb();
  EXPECT_EQ(counter, 2);
}

TEST(InlineCallbackTest, LargeCapturesFallBackToHeapAndStillRun) {
  struct Big {
    char bytes[128];
  } big{};
  big.bytes[0] = 42;
  int seen = 0;
  InlineFunction<void()> cb{[big, &seen] { seen = big.bytes[0]; }};
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(seen, 42);
}

TEST(InlineCallbackTest, MovePreservesCallableAndEmptiesSource) {
  int counter = 0;
  InlineFunction<void()> a{[&counter] { ++counter; }};
  InlineFunction<void()> b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: testing moved-from state
  b();
  EXPECT_EQ(counter, 1);

  InlineFunction<void()> c;
  c = std::move(b);
  c();
  EXPECT_EQ(counter, 2);
}

TEST(InlineCallbackTest, DestructorRunsForBothStorageModes) {
  auto tracker = std::make_shared<int>(0);
  {
    InlineFunction<void()> small{[tracker] { ++*tracker; }};
    struct Big {
      char pad[100];
    };
    InlineFunction<void()> big{
        [tracker, pad = Big{}] { (void)pad; ++*tracker; }};
    EXPECT_EQ(tracker.use_count(), 3);
  }
  EXPECT_EQ(tracker.use_count(), 1);  // both captures destroyed
}

// ------------------------------------------------------------------ ip ----

TEST(IpTest, ParseV4) {
  const auto a = Ipv4Address::parse("192.0.2.1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->value, 0xc0000201u);
  EXPECT_EQ(a->to_string(), "192.0.2.1");
}

TEST(IpTest, ParseV4Rejects) {
  EXPECT_FALSE(Ipv4Address::parse("192.0.2"));
  EXPECT_FALSE(Ipv4Address::parse("192.0.2.256"));
  EXPECT_FALSE(Ipv4Address::parse("192.0.2.1.5"));
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d"));
  EXPECT_FALSE(Ipv4Address::parse(""));
  EXPECT_FALSE(Ipv4Address::parse("1..2.3"));
}

TEST(IpTest, ParseV6Full) {
  const auto a = Ipv6Address::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "2001:db8::1");
}

TEST(IpTest, ParseV6Compressed) {
  const auto a = Ipv6Address::parse("2001:db8::1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->group(0), 0x2001);
  EXPECT_EQ(a->group(1), 0x0db8);
  EXPECT_EQ(a->group(7), 0x0001);
  for (int i = 2; i < 7; ++i) EXPECT_EQ(a->group(i), 0);
}

TEST(IpTest, ParseV6Unspecified) {
  const auto a = Ipv6Address::parse("::");
  ASSERT_TRUE(a);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a->group(i), 0);
  EXPECT_EQ(a->to_string(), "::");
}

TEST(IpTest, ParseV6LeadingTrailingGap) {
  EXPECT_TRUE(Ipv6Address::parse("::1"));
  EXPECT_TRUE(Ipv6Address::parse("fe80::"));
  EXPECT_EQ(Ipv6Address::parse("::1")->to_string(), "::1");
  EXPECT_EQ(Ipv6Address::parse("fe80::")->to_string(), "fe80::");
}

TEST(IpTest, ParseV6Rejects) {
  EXPECT_FALSE(Ipv6Address::parse(""));
  EXPECT_FALSE(Ipv6Address::parse("::1::2"));
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7"));
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8:9"));
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8::"));
  EXPECT_FALSE(Ipv6Address::parse("12345::"));
  EXPECT_FALSE(Ipv6Address::parse("g::1"));
}

TEST(IpTest, V6CanonicalFormRfc5952) {
  // Longest zero run wins; ties go to the first run.
  EXPECT_EQ(Ipv6Address::parse("2001:0:0:1:0:0:0:1")->to_string(),
            "2001:0:0:1::1");
  EXPECT_EQ(Ipv6Address::parse("2001:db8:0:1:1:1:1:1")->to_string(),
            "2001:db8:0:1:1:1:1:1");  // single zero group not compressed
  // Trailing run (5 groups) is longer than the leading one (2 groups).
  EXPECT_EQ(Ipv6Address::parse("0:0:1::")->to_string(), "0:0:1::");
  EXPECT_EQ(Ipv6Address::parse("::1:0:0")->to_string(), "::1:0:0");
}

TEST(IpTest, IpAddressParseDispatch) {
  EXPECT_TRUE(IpAddress::parse("10.0.0.1")->is_v4());
  EXPECT_TRUE(IpAddress::parse("::1")->is_v6());
  EXPECT_FALSE(IpAddress::parse("not-an-ip"));
  EXPECT_THROW(IpAddress::must_parse("nope"), std::invalid_argument);
}

TEST(IpTest, EndpointFormatting) {
  const Endpoint v4{IpAddress::must_parse("10.0.0.1"), 80};
  EXPECT_EQ(v4.to_string(), "10.0.0.1:80");
  const Endpoint v6{IpAddress::must_parse("2001:db8::1"), 443};
  EXPECT_EQ(v6.to_string(), "[2001:db8::1]:443");
}

TEST(IpTest, LongestTextsFillTheirWriteBuffers) {
  const Endpoint v6{
      IpAddress::must_parse("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
      65535};
  EXPECT_EQ(v6.to_string().size(), Endpoint::kMaxText);
  EXPECT_EQ(v6.addr.to_string().size(), IpAddress::kMaxText);
  EXPECT_EQ(IpAddress::must_parse("255.255.255.255").to_string().size(),
            Ipv4Address::kMaxText);
}

TEST(IpTest, ComparisonAndHash) {
  const auto a = IpAddress::must_parse("10.0.0.1");
  const auto b = IpAddress::must_parse("10.0.0.2");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, IpAddress::must_parse("10.0.0.1"));
  EXPECT_NE(a.hash(), b.hash());
  const auto v6 = IpAddress::must_parse("::ffff");
  EXPECT_NE(a.hash(), v6.hash());
}

TEST(IpTest, OrderMatchesTheVariantItReplaced) {
  // IPv4 before IPv6, then by value: the order of
  // std::variant<Ipv4Address, Ipv6Address>, checked pair by pair against
  // that variant, over addresses whose payload bytes collide across
  // families.
  using Reference = std::variant<Ipv4Address, Ipv6Address>;
  std::vector<std::pair<IpAddress, Reference>> cases;
  for (const char* text :
       {"0.0.0.0", "0.0.0.1", "10.0.0.1", "10.0.0.2", "255.255.255.255", "::",
        "::1", "::a00:1", "2001:db8::1", "2001:db8::2", "ffff::"}) {
    const IpAddress a = IpAddress::must_parse(text);
    cases.emplace_back(a, a.is_v4() ? Reference{a.v4()} : Reference{a.v6()});
  }
  for (const auto& [a, ra] : cases) {
    for (const auto& [b, rb] : cases) {
      EXPECT_EQ(a <=> b, ra <=> rb) << a.to_string() << " vs " << b.to_string();
      EXPECT_EQ(a == b, ra == rb) << a.to_string() << " vs " << b.to_string();
    }
  }
  EXPECT_LT(IpAddress::must_parse("255.255.255.255"), IpAddress::must_parse("::"));
  EXPECT_NE(IpAddress{Ipv4Address{}}, IpAddress{Ipv6Address{}});
  EXPECT_NE(IpAddress::must_parse("0.0.0.1"), IpAddress::must_parse("::1"));
  EXPECT_EQ(IpAddress{}, IpAddress::must_parse("0.0.0.0"));
  EXPECT_EQ(IpAddress{}.family(), Family::kIpv4);
}

TEST(IpTest, WrongFamilyAccessThrows) {
  const IpAddress v4 = IpAddress::must_parse("10.0.0.1");
  const IpAddress v6 = IpAddress::must_parse("2001:db8::1");
  EXPECT_EQ(v4.v4().value, 0x0a000001u);
  EXPECT_EQ(v6.v6().group(0), 0x2001);
  EXPECT_THROW(static_cast<void>(v4.v6()), std::bad_variant_access);
  EXPECT_THROW(static_cast<void>(v6.v4()), std::bad_variant_access);
}

TEST(IpTest, HashValuesArePinned) {
  // Unordered containers keyed by address iterate in hash order, so a
  // change here could reorder output.
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"0.0.0.0", 0x22bfeb334b90d7afULL},
      {"10.0.0.1", 0x22bfea224d90d5fcULL},
      {"192.0.2.80", 0x22c21ba00b948f3fULL},
      {"::", 0x24b45be93d9a270fULL},
      {"::ffff", 0x24eef0e93dcc9c85ULL},
      {"2001:db8::1", 0x65aad03329d4acd6ULL},
  };
  for (const auto& [text, hash] : pinned) {
    EXPECT_EQ(static_cast<std::uint64_t>(IpAddress::must_parse(text).hash()),
              hash)
        << text;
  }
  EXPECT_EQ(IpAddress{}.hash(), IpAddress::must_parse("0.0.0.0").hash());
}

// --------------------------------------------------------------- netem ----

Packet make_packet(const std::string& src, const std::string& dst,
                   Protocol proto = Protocol::kUdp, std::uint16_t dport = 53) {
  Packet p;
  p.proto = proto;
  p.src = {IpAddress::must_parse(src), 10000};
  p.dst = {IpAddress::must_parse(dst), dport};
  return p;
}

TEST(NetemTest, EmptyQdiscPassesThrough) {
  NetemQdisc q;
  Rng rng{1};
  const auto v = q.process(make_packet("10.0.0.1", "10.0.0.2"), rng);
  EXPECT_FALSE(v.dropped);
  EXPECT_EQ(v.extra_delay, SimTime{0});
}

TEST(NetemTest, FamilyFilterDelaysOnlyThatFamily) {
  NetemQdisc q;
  q.add_rule(PacketFilter::for_family(Family::kIpv6),
             NetemSpec::delay_only(ms(100)), "delay v6");
  Rng rng{1};
  const auto v6 = q.process(make_packet("2001:db8::1", "2001:db8::2"), rng);
  EXPECT_EQ(v6.extra_delay, ms(100));
  const auto v4 = q.process(make_packet("10.0.0.1", "10.0.0.2"), rng);
  EXPECT_EQ(v4.extra_delay, SimTime{0});
}

TEST(NetemTest, FirstMatchWins) {
  NetemQdisc q;
  q.add_rule(PacketFilter::to_address(IpAddress::must_parse("10.0.0.9")),
             NetemSpec::delay_only(ms(50)));
  q.add_rule(PacketFilter::any(), NetemSpec::delay_only(ms(5)));
  Rng rng{1};
  EXPECT_EQ(q.process(make_packet("10.0.0.1", "10.0.0.9"), rng).extra_delay,
            ms(50));
  EXPECT_EQ(q.process(make_packet("10.0.0.1", "10.0.0.8"), rng).extra_delay,
            ms(5));
}

TEST(NetemTest, FirstMatchSpansAddressRulesAndOtherRules) {
  // Destination-only rules sit between other rules and repeat an address;
  // the rule applied is still the first in insertion order.
  NetemQdisc q;
  PacketFilter v4_https;
  v4_https.family = Family::kIpv4;
  v4_https.dst_port = 443;
  q.add_rule(v4_https, NetemSpec::delay_only(ms(10)));
  q.add_rule(PacketFilter::to_address(IpAddress::must_parse("10.0.0.9")),
             NetemSpec::delay_only(ms(50)));
  q.add_rule(PacketFilter::to_address(IpAddress::must_parse("10.0.0.8")),
             NetemSpec::delay_only(ms(60)));
  q.add_rule(PacketFilter::to_address(IpAddress::must_parse("10.0.0.9")),
             NetemSpec::delay_only(ms(70)));  // shadowed by the 50 ms rule
  q.add_rule(PacketFilter::for_family(Family::kIpv4),
             NetemSpec::delay_only(ms(5)));
  q.add_rule(PacketFilter::to_address(IpAddress::must_parse("10.0.0.7")),
             NetemSpec::delay_only(ms(90)));  // shadowed by the IPv4 rule
  q.add_rule(PacketFilter::to_address(IpAddress::must_parse("2001:db8::9")),
             NetemSpec::delay_only(ms(80)));
  q.add_rule(PacketFilter::any(), NetemSpec::delay_only(ms(1)));
  Rng rng{1};
  const auto delay = [&](const char* dst, std::uint16_t dport) {
    const Protocol proto = dport == 443 ? Protocol::kTcp : Protocol::kUdp;
    const char* src = dst[0] == '2' ? "2001:db8::1" : "10.0.0.1";
    return q.process(make_packet(src, dst, proto, dport), rng).extra_delay;
  };
  EXPECT_EQ(delay("10.0.0.9", 443), ms(10));
  EXPECT_EQ(delay("10.0.0.9", 53), ms(50));
  EXPECT_EQ(delay("10.0.0.8", 53), ms(60));
  EXPECT_EQ(delay("10.0.0.7", 53), ms(5));
  EXPECT_EQ(delay("10.0.0.6", 53), ms(5));
  EXPECT_EQ(delay("2001:db8::9", 443), ms(80));
  EXPECT_EQ(delay("2001:db8::8", 443), ms(1));
}

TEST(NetemTest, VerdictsAndDrawsMatchAnInOrderScan) {
  // Random rule lists over a small address pool, with jitter and loss: every
  // verdict, and the rng state after it, equals that of a plain scan of all
  // rules in insertion order.
  const std::vector<IpAddress> pool{
      IpAddress::must_parse("10.0.0.1"), IpAddress::must_parse("10.0.0.2"),
      IpAddress::must_parse("10.0.0.3"), IpAddress::must_parse("2001:db8::1"),
      IpAddress::must_parse("2001:db8::2")};
  Rng gen{2024};
  const auto pick = [&] { return pool[gen.next_below(pool.size())]; };
  for (int round = 0; round < 50; ++round) {
    NetemQdisc q;
    std::vector<NetemRule> rules;
    const std::uint64_t count = gen.next_below(12);
    for (std::uint64_t i = 0; i < count; ++i) {
      NetemRule rule;
      switch (gen.next_below(4)) {
        case 0:
        case 1:  // half the rules are destination-only
          rule.filter = PacketFilter::to_address(pick());
          break;
        case 2:
          rule.filter.dst_addr = pick();
          rule.filter.dst_port = 53;
          break;
        default:
          if (gen.chance(0.5)) rule.filter.family = Family::kIpv6;
          if (gen.chance(0.5)) rule.filter.src_addr = pick();
      }
      rule.spec.delay = ms(static_cast<std::int64_t>(1 + gen.next_below(100)));
      rule.spec.jitter = ms(static_cast<std::int64_t>(gen.next_below(3)));
      rule.spec.loss = gen.chance(0.3) ? 0.25 : 0.0;
      rules.push_back(rule);
      q.add_rule(rule);
    }
    Rng fast{static_cast<std::uint64_t>(round)};
    Rng reference{static_cast<std::uint64_t>(round)};
    for (int n = 0; n < 40; ++n) {
      IpAddress src = pick();
      IpAddress dst = pick();
      while (dst.family() != src.family()) dst = pick();
      Packet p;
      p.proto = Protocol::kUdp;
      p.src = {src, 10000};
      p.dst = {dst, static_cast<std::uint16_t>(gen.chance(0.5) ? 53 : 443)};

      NetemVerdict expected;
      for (const NetemRule& rule : rules) {
        if (!rule.filter.matches(p)) continue;
        if (rule.spec.loss > 0.0 && reference.chance(rule.spec.loss)) {
          expected.dropped = true;
        } else {
          SimTime d = rule.spec.delay;
          if (rule.spec.jitter.count() > 0) {
            d += reference.next_duration(-rule.spec.jitter, rule.spec.jitter);
          }
          expected.extra_delay = std::max(SimTime{0}, d);
        }
        break;
      }
      const NetemVerdict got = q.process(p, fast);
      ASSERT_EQ(got.dropped, expected.dropped) << "round " << round;
      ASSERT_EQ(got.extra_delay, expected.extra_delay) << "round " << round;
      ASSERT_EQ(fast.next_u64(), reference.next_u64()) << "round " << round;
    }
  }
}

TEST(NetemTest, PortAndProtocolFilters) {
  NetemQdisc q;
  PacketFilter f;
  f.proto = Protocol::kTcp;
  f.dst_port = 443;
  q.add_rule(f, NetemSpec::delay_only(ms(30)));
  Rng rng{1};
  EXPECT_EQ(
      q.process(make_packet("10.0.0.1", "10.0.0.2", Protocol::kTcp, 443), rng)
          .extra_delay,
      ms(30));
  EXPECT_EQ(
      q.process(make_packet("10.0.0.1", "10.0.0.2", Protocol::kUdp, 443), rng)
          .extra_delay,
      SimTime{0});
  EXPECT_EQ(
      q.process(make_packet("10.0.0.1", "10.0.0.2", Protocol::kTcp, 80), rng)
          .extra_delay,
      SimTime{0});
}

TEST(NetemTest, JitterStaysWithinBounds) {
  NetemQdisc q;
  q.add_rule(PacketFilter::any(), NetemSpec{ms(100), ms(20), 0.0});
  Rng rng{42};
  bool varied = false;
  SimTime first{-1};
  for (int i = 0; i < 200; ++i) {
    const auto v = q.process(make_packet("10.0.0.1", "10.0.0.2"), rng);
    EXPECT_GE(v.extra_delay, ms(80));
    EXPECT_LE(v.extra_delay, ms(120));
    if (first.count() < 0) {
      first = v.extra_delay;
    } else if (v.extra_delay != first) {
      varied = true;
    }
  }
  EXPECT_TRUE(varied);
}

TEST(NetemTest, LossDropsApproximately) {
  NetemQdisc q;
  q.add_rule(PacketFilter::any(), NetemSpec{SimTime{0}, SimTime{0}, 0.25});
  Rng rng{42};
  int dropped = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    if (q.process(make_packet("10.0.0.1", "10.0.0.2"), rng).dropped) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / kTrials, 0.25, 0.03);
}

// ---------------------------------------------------------- host/network --

TEST(NetworkTest, UdpDelivery) {
  Network net{1};
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  b.add_address(IpAddress::must_parse("10.0.0.2"));

  std::vector<std::uint8_t> received;
  SimTime arrival{};
  b.udp_bind(53, [&](const Packet& p) {
    received.assign(p.payload.begin(), p.payload.end());
    arrival = net.loop().now();
  });

  a.udp_send({IpAddress::must_parse("10.0.0.1"), 5555},
             {IpAddress::must_parse("10.0.0.2"), 53}, Buffer::adopt({1, 2, 3}));
  net.loop().run();

  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(arrival, net.base_delay());
  EXPECT_EQ(net.stats().packets_delivered, 1u);
}

TEST(NetworkTest, BlackholedWhenNoHostOwnsAddress) {
  Network net{1};
  Host& a = net.add_host("a");
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  a.udp_send({IpAddress::must_parse("10.0.0.1"), 5555},
             {IpAddress::must_parse("10.0.0.99"), 53}, Buffer{});
  net.loop().run();
  EXPECT_EQ(net.stats().packets_blackholed, 1u);
  EXPECT_EQ(net.stats().packets_delivered, 0u);
}

TEST(NetworkTest, EgressNetemDelaysDelivery) {
  Network net{1};
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  a.add_address(IpAddress::must_parse("2001:db8::1"));
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  b.add_address(IpAddress::must_parse("2001:db8::2"));
  b.add_address(IpAddress::must_parse("10.0.0.2"));
  a.egress().add_rule(PacketFilter::for_family(Family::kIpv6),
                      NetemSpec::delay_only(ms(200)));

  SimTime v6_arrival{-1};
  SimTime v4_arrival{-1};
  b.udp_bind(53, [&](const Packet& p) {
    if (p.family() == Family::kIpv6) {
      v6_arrival = net.loop().now();
    } else {
      v4_arrival = net.loop().now();
    }
  });

  a.udp_send({IpAddress::must_parse("2001:db8::1"), 5000},
             {IpAddress::must_parse("2001:db8::2"), 53}, Buffer{});
  a.udp_send({IpAddress::must_parse("10.0.0.1"), 5000},
             {IpAddress::must_parse("10.0.0.2"), 53}, Buffer{});
  net.loop().run();

  // The egress rule adds its delay on top of the fixed base link delay.
  EXPECT_EQ(v6_arrival, ms(200) + net.base_delay());
  EXPECT_EQ(v4_arrival, net.base_delay());
}

TEST(NetworkTest, SendFromUnownedAddressThrows) {
  Network net{1};
  Host& a = net.add_host("a");
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  EXPECT_THROW(a.udp_send({IpAddress::must_parse("10.9.9.9"), 1},
                          {IpAddress::must_parse("10.0.0.2"), 53}, Buffer{}),
               std::logic_error);
}

TEST(NetworkTest, FamilyMismatchThrows) {
  Network net{1};
  Host& a = net.add_host("a");
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  EXPECT_THROW(a.udp_send({IpAddress::must_parse("10.0.0.1"), 1},
                          {IpAddress::must_parse("2001:db8::1"), 53}, Buffer{}),
               std::logic_error);
}

TEST(NetworkTest, TapsSeeBothDirections) {
  Network net{1};
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  b.add_address(IpAddress::must_parse("10.0.0.2"));
  b.udp_bind(53, [](const Packet&) {});

  int egress_seen = 0;
  int ingress_seen = 0;
  a.add_tap([&](const Packet&, TapDirection d) {
    if (d == TapDirection::kEgress) ++egress_seen;
  });
  const int tap_b = b.add_tap([&](const Packet&, TapDirection d) {
    if (d == TapDirection::kIngress) ++ingress_seen;
  });

  a.udp_send({IpAddress::must_parse("10.0.0.1"), 1},
             {IpAddress::must_parse("10.0.0.2"), 53}, Buffer{});
  net.loop().run();
  EXPECT_EQ(egress_seen, 1);
  EXPECT_EQ(ingress_seen, 1);

  b.remove_tap(tap_b);
  a.udp_send({IpAddress::must_parse("10.0.0.1"), 1},
             {IpAddress::must_parse("10.0.0.2"), 53}, Buffer{});
  net.loop().run();
  EXPECT_EQ(ingress_seen, 1);  // tap removed
}

TEST(NetworkTest, EphemeralPortsCycle) {
  Network net{1};
  Host& a = net.add_host("a");
  const auto p1 = a.ephemeral_port();
  const auto p2 = a.ephemeral_port();
  EXPECT_NE(p1, p2);
  EXPECT_GE(p1, 49152);
}

TEST(NetworkTest, RouteByAddress) {
  Network net{1};
  Host& a = net.add_host("alpha");
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  EXPECT_EQ(net.route(IpAddress::must_parse("10.0.0.1")), &a);
  EXPECT_EQ(net.route(IpAddress::must_parse("10.0.0.2")), nullptr);

  // An address registered by two hosts routes to the later one.
  Host& b = net.add_host("beta");
  b.add_address(IpAddress::must_parse("10.0.0.1"));
  EXPECT_EQ(net.route(IpAddress::must_parse("10.0.0.1")), &b);

  // A 40-address host (the webtool world's size), registered in an order
  // that interleaves the families, routes every address.
  Host& web = net.add_host("web");
  std::vector<IpAddress> owned;
  for (std::uint32_t i = 0; i < 20; ++i) {
    Ipv6Address v6 = Ipv6Address::parse("2001:db8:80::").value();
    v6.set_group(7, static_cast<std::uint16_t>(0x100 - i));
    owned.emplace_back(v6);
    owned.emplace_back(Ipv4Address{0xC0000200u + 40 - i});  // 192.0.2.x
  }
  for (const IpAddress& addr : owned) web.add_address(addr);
  for (const IpAddress& addr : owned) {
    EXPECT_EQ(net.route(addr), &web) << addr.to_string();
  }
  EXPECT_EQ(net.route(IpAddress::must_parse("10.0.0.1")), &b);

  // Unowned addresses of either family, inside and around the owned
  // ranges, route nowhere.
  for (const char* unowned : {"192.0.2.1", "192.0.2.41", "255.255.255.255",
                              "0.0.0.0", "2001:db8:80::1", "2001:db8:80::101",
                              "::", "2001:db8:81::100"}) {
    EXPECT_EQ(net.route(IpAddress::must_parse(unowned)), nullptr) << unowned;
  }
}

// -------------------------------------------------------------- buffers ----

TEST(BufferTest, SmallPayloadStaysInline) {
  BufferPool pool;
  Buffer b{&pool};
  for (std::uint8_t i = 0; i < Buffer::kInlineCapacity; ++i) b.push_back(i);
  EXPECT_TRUE(b.is_inline());
  EXPECT_EQ(b.size(), Buffer::kInlineCapacity);
  EXPECT_EQ(pool.acquires(), 0u);
  b.push_back(0xFF);  // one past capacity promotes to a pooled block
  EXPECT_FALSE(b.is_inline());
  EXPECT_EQ(b.size(), Buffer::kInlineCapacity + 1);
  EXPECT_EQ(b[0], 0u);
  EXPECT_EQ(b[Buffer::kInlineCapacity], 0xFF);
  EXPECT_EQ(pool.acquires(), 1u);
}

TEST(BufferTest, BlocksRecycleThroughThePool) {
  BufferPool pool;
  const std::vector<std::uint8_t> bytes(100, 0xAB);
  {
    Buffer b{&pool, bytes};
    EXPECT_FALSE(b.is_inline());
  }  // block released back to the pool
  EXPECT_EQ(pool.idle(), 1u);
  Buffer c{&pool, bytes};
  EXPECT_EQ(pool.acquires(), 2u);
  EXPECT_EQ(pool.reuses(), 1u);  // second acquisition was a free-list hit
  EXPECT_TRUE(std::equal(c.begin(), c.end(), bytes.begin(), bytes.end()));
}

TEST(BufferTest, MoveStealsBlockAndCopyIsUnpooled) {
  BufferPool pool;
  const std::vector<std::uint8_t> bytes(64, 0x42);
  Buffer a{&pool, bytes};

  // A copy must not reference the pool: captures can outlive the Network.
  Buffer copy = a;
  EXPECT_EQ(copy.pool(), nullptr);
  EXPECT_EQ(copy, a);

  Buffer moved = std::move(a);
  EXPECT_EQ(moved.size(), bytes.size());
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  EXPECT_EQ(pool.reuses(), 0u);  // the move did not touch the pool
}

TEST(BufferTest, AdoptWrapsVectorWithoutCopy) {
  std::vector<std::uint8_t> v{1, 2, 3, 4};
  const std::uint8_t* data = v.data();
  Buffer b = Buffer::adopt(std::move(v));
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b.size(), 4u);
}

TEST(BufferTest, ClearKeepsStorageAndResizeZeroFills) {
  BufferPool pool;
  Buffer b{&pool};
  b.resize(64);
  const std::uint8_t* block = b.data();
  b.clear();
  EXPECT_EQ(b.size(), 0u);
  b.resize(64);
  EXPECT_EQ(b.data(), block);  // same block, no pool round trip
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(b[63], 0u);
}

// ------------------------------------------------------- timer ordering ----

TEST(EventLoopTest, SubMicrosecondOrderIsExact) {
  // Distinct nanosecond times less than a microsecond apart must still run
  // in (when, seq) order.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(ns(900), [&] { order.push_back(2); });
  loop.schedule_at(ns(100), [&] { order.push_back(1); });
  loop.schedule_at(ns(900), [&] { order.push_back(3); });  // same ns: by seq
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, OrderMatchesReferenceModelUnderChurn) {
  // Fuzz schedule/cancel over delays from nanoseconds to seconds and check
  // the execution order against a (when, seq) reference sort.
  Rng rng{7};
  EventLoop loop;
  struct Expected {
    SimTime when;
    std::uint64_t seq;
  };
  std::vector<Expected> expected;
  std::vector<std::uint64_t> executed;
  std::vector<TimerId> ids;
  std::uint64_t seq = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t band = rng.next_below(4);
    SimTime delay{};
    switch (band) {
      case 0: delay = ns(static_cast<std::int64_t>(rng.next_below(1000))); break;
      case 1: delay = us(static_cast<std::int64_t>(rng.next_below(4000))); break;
      case 2: delay = ms(static_cast<std::int64_t>(rng.next_below(2000))); break;
      default: delay = sec(2 + static_cast<std::int64_t>(rng.next_below(8)));
    }
    const std::uint64_t this_seq = seq++;
    const SimTime when = loop.now() + delay;
    ids.push_back(loop.schedule_after(
        delay, [&executed, this_seq] { executed.push_back(this_seq); }));
    if (rng.chance(0.25)) {
      loop.cancel(ids.back());
    } else {
      expected.push_back(Expected{when, this_seq});
    }
  }
  EXPECT_EQ(loop.heap_scheduled(), 2000u);
  EXPECT_EQ(loop.wheel_scheduled(), 0u);
  loop.run();
  std::sort(expected.begin(), expected.end(),
            [](const Expected& a, const Expected& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.seq < b.seq;
            });
  ASSERT_EQ(executed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(executed[i], expected[i].seq) << "at index " << i;
  }
}

TEST(EventLoopTest, EventScheduledAfterRunUntilRunsBeforeLaterPending) {
  // run_until stops just short of a pending event; an event scheduled
  // afterwards at an earlier time must still run first.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(sec(2), [&] { order.push_back(2); });
  loop.run_until(sec(2) - ms(1));
  loop.schedule_after(us(10), [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, CancelledTimersSurviveRunUntilJumps) {
  EventLoop loop;
  int fired = 0;
  std::vector<TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(loop.schedule_after(ms(1 + i), [&] { ++fired; }));
  }
  for (const TimerId id : ids) EXPECT_TRUE(loop.cancel(id));
  EXPECT_EQ(loop.pending(), 0u);
  // Jump far past every cancelled timer, then schedule fresh ones: they run
  // relative to the new now() and nothing cancelled fires.
  loop.run_until(sec(30));
  EXPECT_EQ(fired, 0);
  loop.schedule_after(ms(5), [&] { ++fired; });
  loop.schedule_after(ms(500), [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), sec(30) + ms(500));
}

TEST(EventLoopTest, ChainedZeroDelaySchedulingStaysAtOneInstant) {
  EventLoop loop;
  int depth = 0;
  struct Chain {
    EventLoop* loop;
    int* depth;
    void operator()() const {
      if (++*depth < 5) loop->schedule_after(SimTime{0}, *this);
    }
  };
  loop.schedule_at(ms(1), Chain{&loop, &depth});
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), ms(1));
}

// ------------------------------------------- callbacks that never move ----

/// Lifecycle counts of one scheduled callable and of its moved-to copies.
struct Lifecycle {
  int copies = 0;
  int moves = 0;
  int moves_at_call = -1;  // `moves` when the callable was invoked
  int calls = 0;
  int destroyed = 0;  // destructions of the instance holding the callable
};

/// A callable that counts its copies, moves and its one real destruction
/// (a moved-from shell does not count). Nothrow-movable and small, so the
/// loop stores it inline.
class Tracked {
 public:
  explicit Tracked(Lifecycle* life) : life_{life} {}
  Tracked(const Tracked& other) : life_{other.life_}, owner_{other.owner_} {
    ++life_->copies;
  }
  Tracked(Tracked&& other) noexcept
      : life_{other.life_}, owner_{other.owner_} {
    other.owner_ = false;
    ++life_->moves;
  }
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (owner_) ++life_->destroyed;
  }
  void operator()() {
    life_->moves_at_call = life_->moves;
    ++life_->calls;
  }

 private:
  Lifecycle* life_;
  bool owner_ = true;
};

TEST(EventLoopTest, PendingCallbacksNeverMoveAndDieExactlyOnce) {
  // The tracked callable is scheduled first, beneath ~1,000 seeded timers
  // whose heap churn and slot-table growth would relocate any callback
  // stored in a heap node; a quarter are cancelled and some schedule more
  // timers from inside their callbacks.
  EventLoop loop;
  Lifecycle fired;
  Lifecycle cancelled;
  loop.schedule_at(ms(700), Tracked{&fired});
  const int fired_moves = fired.moves;
  const TimerId doomed = loop.schedule_at(ms(900), Tracked{&cancelled});
  const int cancelled_moves = cancelled.moves;

  Rng rng{11};
  std::vector<TimerId> ids;
  int ran = 0;
  for (int i = 0; i < 1000; ++i) {
    const SimTime delay =
        us(static_cast<std::int64_t>(rng.next_below(1'000'000)));
    if (rng.chance(0.2)) {
      ids.push_back(loop.schedule_after(delay, [&loop, &ran, delay] {
        ++ran;
        loop.schedule_after(delay / 2, [&ran] { ++ran; });
      }));
    } else {
      ids.push_back(loop.schedule_after(delay, [&ran] { ++ran; }));
    }
    if (i == 500) {
      EXPECT_TRUE(loop.cancel(doomed));
      EXPECT_EQ(cancelled.destroyed, 1) << "cancel() must destroy the callback";
      EXPECT_EQ(cancelled.moves, cancelled_moves);
    }
  }
  for (std::size_t i = 0; i < ids.size(); i += 4) loop.cancel(ids[i]);
  loop.run();

  EXPECT_GT(ran, 750);
  EXPECT_EQ(fired.calls, 1);
  EXPECT_EQ(fired.moves_at_call, fired_moves)
      << "a pending callback moved between schedule_at() and its call";
  EXPECT_EQ(fired.moves, fired_moves);
  EXPECT_EQ(fired.copies, 0);
  EXPECT_EQ(fired.destroyed, 1);
  EXPECT_EQ(cancelled.calls, 0);
  EXPECT_EQ(cancelled.copies, 0);
  EXPECT_EQ(cancelled.destroyed, 1);
}

TEST(EventLoopTest, CallbackMayGrowSlotTableAndCancelAroundItself) {
  // A running callback schedules enough timers to grow the slot table past
  // its size, cancels half of them and tries to cancel itself. It runs
  // once, its captures survive the growth, pending() stays exact and every
  // timer fires in (when, seq) order.
  EventLoop loop;
  struct Expected {
    SimTime when;
    std::uint64_t seq;
  };
  std::vector<Expected> expected;
  std::vector<std::uint64_t> fired;
  std::uint64_t next_seq = 0;
  const auto schedule = [&](SimTime when) {
    const std::uint64_t seq = next_seq++;
    expected.push_back(Expected{when, seq});
    return loop.schedule_at(when, [&fired, seq] { fired.push_back(seq); });
  };
  for (int i = 0; i < 8; ++i) schedule(ms(2 * i));  // 0, 2, ..., 14 ms

  struct Context {
    TimerId self;
    std::uint64_t seq = 0;
    int runs = 0;
  } ctx;
  const std::array<std::uint64_t, 6> marks{11, 22, 33, 44, 55, 66};
  ctx.seq = next_seq++;
  expected.push_back(Expected{ms(3), ctx.seq});
  ctx.self = loop.schedule_at(ms(3), [&, marks] {
    ++ctx.runs;
    fired.push_back(ctx.seq);
    EXPECT_EQ(loop.pending(), 6u);  // 4, 6, ..., 14 ms
    std::vector<TimerId> fresh;
    for (int k = 0; k < 64; ++k) {
      fresh.push_back(schedule(loop.now() + us(500 * (k % 8))));
    }
    for (std::size_t k = 0; k < fresh.size(); k += 2) {
      EXPECT_TRUE(loop.cancel(fresh[k]));
    }
    EXPECT_FALSE(loop.cancel(ctx.self));
    EXPECT_EQ(loop.pending(), 6u + 32u);
    EXPECT_EQ(marks, (std::array<std::uint64_t, 6>{11, 22, 33, 44, 55, 66}));
  });
  EXPECT_EQ(loop.pending(), 9u);
  loop.run();

  EXPECT_EQ(ctx.runs, 1);
  EXPECT_EQ(loop.pending(), 0u);
  // Drop the cancelled half (even k) of the 64 timers the callback added.
  const std::uint64_t first_fresh = ctx.seq + 1;
  std::erase_if(expected, [&](const Expected& e) {
    return e.seq >= first_fresh && (e.seq - first_fresh) % 2 == 0;
  });
  std::sort(expected.begin(), expected.end(),
            [](const Expected& a, const Expected& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.seq < b.seq;
            });
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].seq) << "at index " << i;
  }
}

/// Forwards to the global heap and tracks what is still outstanding.
class CountingResource : public std::pmr::memory_resource {
 public:
  std::uint64_t allocations = 0;
  std::int64_t outstanding_bytes = 0;

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    ++allocations;
    outstanding_bytes += static_cast<std::int64_t>(bytes);
    return std::pmr::new_delete_resource()->allocate(bytes, align);
  }
  void do_deallocate(void* p, std::size_t bytes, std::size_t align) override {
    outstanding_bytes -= static_cast<std::int64_t>(bytes);
    std::pmr::new_delete_resource()->deallocate(p, bytes, align);
  }
  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }
};

TEST(EventLoopTest, SlotChunksHoldTimersAcrossChunkBoundaries) {
  // 100 pending timers span four slot chunks. A quarter are cancelled, and
  // the earliest callback schedules 60 more from inside its run, reusing
  // the freed slots and growing the table past them, then cancels a third
  // of those. Every survivor fires once in (when, seq) order; a second
  // round of the same shape draws nothing more from the resource, and the
  // loop returns every byte it drew when it is destroyed.
  CountingResource memory;
  {
    EventLoop loop{&memory};
    struct Expected {
      SimTime when;
      std::uint64_t seq;
    };
    std::vector<Expected> expected;
    std::vector<std::uint64_t> fired;
    std::uint64_t next_seq = 0;
    Rng rng{33};
    const auto schedule = [&](SimTime when) {
      const std::uint64_t seq = next_seq++;
      expected.push_back(Expected{when, seq});
      return loop.schedule_at(when, [&fired, seq] { fired.push_back(seq); });
    };
    const auto cancel = [&](TimerId id, std::uint64_t seq) {
      EXPECT_TRUE(loop.cancel(id));
      std::erase_if(expected, [seq](const Expected& e) { return e.seq == seq; });
    };
    const auto round = [&] {
      const SimTime base = loop.now();
      const std::uint64_t first_seq = next_seq;
      std::vector<TimerId> ids;
      for (int i = 0; i < 100; ++i) {
        ids.push_back(schedule(
            base + ms(1) + us(static_cast<std::int64_t>(rng.next_below(5000)))));
      }
      for (std::size_t i = 0; i < ids.size(); i += 4) {
        cancel(ids[i], first_seq + i);
      }
      const std::uint64_t spawner_seq = next_seq++;
      expected.push_back(Expected{base, spawner_seq});
      loop.schedule_at(base, [&, spawner_seq] {
        fired.push_back(spawner_seq);
        const std::uint64_t spawned_seq = next_seq;
        std::vector<TimerId> spawned;
        for (int k = 0; k < 60; ++k) {
          spawned.push_back(schedule(
              loop.now() + us(static_cast<std::int64_t>(rng.next_below(6000)))));
        }
        for (std::size_t k = 0; k < spawned.size(); k += 3) {
          cancel(spawned[k], spawned_seq + k);
        }
      });
      loop.run();
      EXPECT_EQ(loop.pending(), 0u);
    };

    round();
    const std::uint64_t warm = memory.allocations;
    round();
    EXPECT_EQ(memory.allocations, warm)
        << "a round within the high-water mark drew new slot storage";

    std::sort(expected.begin(), expected.end(),
              [](const Expected& a, const Expected& b) {
                if (a.when != b.when) return a.when < b.when;
                return a.seq < b.seq;
              });
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(fired[i], expected[i].seq) << "at index " << i;
    }

    // A timer left pending is destroyed with the loop.
    loop.schedule_after(ms(1), [] {});
  }
  EXPECT_EQ(memory.outstanding_bytes, 0);
}

// ------------------------------------------------- flat dispatch safety ----

TEST(NetworkTest, HandlerMayRebindDuringDispatch) {
  Network net{1};
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  b.add_address(IpAddress::must_parse("10.0.0.2"));

  std::vector<std::string> got;
  // First packet's handler unbinds itself and binds a different port —
  // mutations are deferred until the dispatch returns.
  b.udp_bind(100, [&](const Packet&) {
    got.push_back("first");
    b.udp_unbind(100);
    b.udp_bind(200, [&](const Packet&) { got.push_back("second"); });
  });

  const Endpoint src{IpAddress::must_parse("10.0.0.1"), 5555};
  const Endpoint dst100{IpAddress::must_parse("10.0.0.2"), 100};
  const Endpoint dst200{IpAddress::must_parse("10.0.0.2"), 200};
  a.udp_send(src, dst100, Buffer{});
  net.loop().run();
  a.udp_send(src, dst100, Buffer{});  // now unbound: dropped
  a.udp_send(src, dst200, Buffer{});
  net.loop().run();
  EXPECT_EQ(got, (std::vector<std::string>{"first", "second"}));
}

TEST(NetworkTest, PendingPooledBuffersSurviveNetworkDestruction) {
  // A timer closure owning a pool-backed Buffer (the AuthServer delayed-
  // response shape) may still be pending when the Network dies; the pool
  // must outlive the loop's remaining callbacks (destruction order).
  Network net{1};
  Buffer wire{&net.buffer_pool()};
  wire.resize(100);  // pool-backed block
  net.loop().schedule_after(sec(5), [wire = std::move(wire)]() mutable {
    wire.clear();
  });
  // ~Network runs here with the callback (and its Buffer) still queued.
}

TEST(NetworkTest, ThrowingHandlerDoesNotWedgeDispatch) {
  Network net{1};
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  a.add_address(IpAddress::must_parse("10.0.0.1"));
  b.add_address(IpAddress::must_parse("10.0.0.2"));
  const Endpoint src{IpAddress::must_parse("10.0.0.1"), 5555};
  const Endpoint dst{IpAddress::must_parse("10.0.0.2"), 100};

  b.udp_bind(100, [](const Packet&) { throw std::runtime_error("boom"); });
  a.udp_send(src, dst, Buffer{});
  EXPECT_THROW(net.loop().run(), std::runtime_error);

  // The dispatch depth must have unwound: a rebind takes effect normally.
  int got = 0;
  b.udp_bind(100, [&](const Packet&) { ++got; });
  a.udp_send(src, dst, Buffer{});
  net.loop().run();
  EXPECT_EQ(got, 1);
}

// ------------------------------------- event-loop allocation regression ----

TEST(EventLoopAllocationTest, WarmTimerChainsAndCancelChurnAllocateNothing) {
  // Each callback schedules its successor, the pattern of HE attempt and
  // retransmit timers; 64 concurrent chains hold a fuller heap than any
  // cell does.
  struct Chain {
    EventLoop* loop;
    std::uint64_t* remaining;
    void operator()() const {
      if (--*remaining > 0) loop->schedule_after(ms(1), *this);
    }
  };
  constexpr std::size_t kChains = 64;
  constexpr std::uint64_t kEventsPerChain = 1000;
  EventLoop loop;
  std::uint64_t remaining[kChains];
  const auto run_chains = [&] {
    for (std::size_t c = 0; c < kChains; ++c) {
      remaining[c] = kEventsPerChain;
      loop.schedule_after(ms(static_cast<std::int64_t>(c)),
                          Chain{&loop, &remaining[c]});
    }
    loop.run();
  };

  // Warm-up: grows the heap and the callback slots to their high-water
  // marks.
  run_chains();

  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t processed_before = loop.processed();
  run_chains();
  std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(loop.processed() - processed_before, kChains * kEventsPerChain);
  EXPECT_EQ(after - before, 0u)
      << "warm timer chains touched the heap (" << (after - before)
      << " allocations over " << kChains * kEventsPerChain << " events)";

  // Schedule/cancel churn: arm two timers, cancel both before they fire and
  // drop their stale keys. Slots recycle with a bumped generation.
  constexpr int kChurnRounds = 10'000;
  int fired = 0;
  int cancelled = 0;
  before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kChurnRounds; ++i) {
    const TimerId sooner = loop.schedule_after(ms(5), [&fired] { ++fired; });
    const TimerId later = loop.schedule_after(ms(10), [&fired] { ++fired; });
    cancelled += loop.cancel(later) ? 1 : 0;
    cancelled += loop.cancel(sooner) ? 1 : 0;
    loop.run_for(ms(0));
  }
  after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(cancelled, 2 * kChurnRounds);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(after - before, 0u)
      << "schedule/cancel churn touched the heap (" << (after - before)
      << " allocations over " << kChurnRounds << " rounds)";
}

// -------------------------------------- data-path allocation regression ----

/// Deterministic UDP echo workload over one Network: a client/server pair
/// bouncing a pooled payload back and forth.
class UdpEchoHarness {
 public:
  /// Large enough to need a pooled block (not the Buffer's inline storage),
  /// so every hop exercises the BufferPool recycle path.
  static constexpr std::size_t kPayloadBytes = 64;

  /// Adds the echo client/server host pair to `net` and binds both ports.
  /// The harness must not outlive the network.
  explicit UdpEchoHarness(Network& net)
      : net_{net},
        client_{net.add_host("echo-client")},
        server_{net.add_host("echo-server")} {
    client_.add_address(client_ep_.addr);
    server_.add_address(server_ep_.addr);
    server_.udp_bind(server_ep_.port, [this](const Packet& p) {
      Buffer reply{&net_.buffer_pool()};
      reply.append(p.payload.span());
      server_.udp_send(p.dst, p.src, std::move(reply));
    });
    client_.udp_bind(client_ep_.port, [this](const Packet& p) {
      if (--remaining_ == 0) return;
      Buffer next{&net_.buffer_pool()};
      next.append(p.payload.span());
      client_.udp_send(p.dst, p.src, std::move(next));
    });
  }

  /// Runs `rounds` echo round trips (two delivered packets each) to
  /// completion on the network's event loop.
  void run_rounds(std::uint64_t rounds) {
    if (rounds == 0) return;
    remaining_ = rounds;
    Buffer first{&net_.buffer_pool()};
    for (std::size_t i = 0; i < kPayloadBytes; ++i) {
      first.push_back(static_cast<std::uint8_t>(i));
    }
    client_.udp_send(client_ep_, server_ep_, std::move(first));
    net_.loop().run();
  }

 private:
  Network& net_;
  Host& client_;
  Host& server_;
  Endpoint client_ep_{IpAddress::must_parse("10.0.0.1"), 9000};
  Endpoint server_ep_{IpAddress::must_parse("10.0.0.2"), 7};
  std::uint64_t remaining_ = 0;
};

TEST(DataPathAllocationTest, SteadyStateUdpEchoAllocatesNothing) {
  Network net{1};
  UdpEchoHarness echo{net};

  // Warm-up: grows the buffer pool, flight-slot table, timer heap and
  // dispatch tables to their steady-state high-water marks.
  echo.run_rounds(64);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t delivered_before = net.stats().packets_delivered;
  echo.run_rounds(256);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t delivered =
      net.stats().packets_delivered - delivered_before;

  EXPECT_GE(delivered, 512u);  // 2 deliveries per round trip
  EXPECT_EQ(after - before, 0u)
      << "steady-state UDP delivery touched the heap ("
      << (after - before) << " allocations over " << delivered
      << " delivered packets)";
}

}  // namespace
}  // namespace lazyeye::simnet
