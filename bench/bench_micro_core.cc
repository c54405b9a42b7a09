// Core micro-benchmarks (google-benchmark): DNS wire codec, event loop,
// netem processing, TCP handshake simulation, full HE session — plus the
// bench_eventloop_micro section covering the allocation-lean scheduling
// path (InlineCallback dispatch, schedule/cancel churn with generation-
// tagged timer slots) and the bench_datapath section covering the pooled
// per-packet path (UDP echo packets/sec with an allocations-per-delivered-
// packet counter that must stay at 0 in steady state, plus reuse-friendly
// DNS codec entry points). Run sections with
// --benchmark_filter='EventLoop|InlineCallback' or
// --benchmark_filter='UdpEcho|DnsEncodeInto|DnsDecodeInto'.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "capture/capture.h"
#include "dns/auth_server.h"
#include "dns/message.h"
#include "he/address_selection.h"
#include "he/engine.h"
#include "simnet/inline_callback.h"
#include "simnet/network.h"
#include "simnet/udp_echo.h"

using namespace lazyeye;

// ---- allocation counting (global operator-new proxy) -----------------------
// The datapath benchmarks report heap allocations per delivered packet; the
// pooled-buffer + flight-slot + timer-heap path keeps it at exactly 0.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

dns::DnsMessage sample_message() {
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
  return msg;
}

void BM_DnsEncode(benchmark::State& state) {
  const auto msg = sample_message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.encode());
  }
}
BENCHMARK(BM_DnsEncode);

void BM_DnsDecode(benchmark::State& state) {
  const auto wire = sample_message().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DnsMessage::decode(wire));
  }
}
BENCHMARK(BM_DnsDecode);

// ---- bench_datapath: reusable codec + pooled packet path -------------------

void BM_DnsEncodeInto(benchmark::State& state) {
  // Reuse-friendly entry point: pooled output buffer + retained compressor
  // (the DnsClient/AuthServer hot path), vs BM_DnsEncode's fresh buffers.
  const auto msg = sample_message();
  lazyeye::BufferPool pool;
  lazyeye::Buffer wire{&pool};
  dns::NameCompressor compressor;
  const std::uint64_t alloc_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    msg.encode_into(wire, compressor);
    benchmark::DoNotOptimize(wire.size());
  }
  const double allocs = static_cast<double>(
      g_allocations.load(std::memory_order_relaxed) - alloc_before);
  state.counters["allocs_per_encode"] =
      benchmark::Counter(allocs / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_DnsEncodeInto);

void BM_DnsDecodeInto(benchmark::State& state) {
  // Scratch-message decode (section vectors keep their capacity).
  const auto wire = sample_message().encode();
  dns::DnsMessage scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DnsMessage::decode_into(wire, scratch));
  }
}
BENCHMARK(BM_DnsDecodeInto);

void BM_UdpEchoSteadyState(benchmark::State& state) {
  // The per-packet data path end to end: pooled payload -> flight slot ->
  // timer heap -> flat dispatch -> pooled echo reply (the shared
  // simnet::UdpEchoHarness workload). Reports packets/sec
  // (items_per_second) and allocations per delivered packet, which the
  // pooled path keeps at exactly 0 after warm-up.
  simnet::Network net{1};
  simnet::UdpEchoHarness echo{net};

  echo.run_rounds(256);  // warm-up: pool, flight slots, timer heap

  const std::uint64_t alloc_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t delivered_before = net.stats().packets_delivered;
  for (auto _ : state) {
    echo.run_rounds(1024);
  }
  const std::uint64_t delivered =
      net.stats().packets_delivered - delivered_before;
  const double allocs = static_cast<double>(
      g_allocations.load(std::memory_order_relaxed) - alloc_before);

  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.counters["packets_per_sec"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
  state.counters["allocs_per_delivered_packet"] = benchmark::Counter(
      delivered > 0 ? allocs / static_cast<double>(delivered) : 0.0);
}
BENCHMARK(BM_UdpEchoSteadyState);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simnet::EventLoop loop;
    int counter = 0;
    for (int i = 0; i < n; ++i) {
      loop.schedule_at(ms(i % 100), [&counter] { ++counter; });
    }
    loop.run();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(100)->Arg(1000)->Arg(10000);

// ---- bench_eventloop_micro -------------------------------------------------
// The campaign hot path schedules DNS-timeout / TCP-retransmit / HE-attempt
// timers constantly; these isolate that path.

void BM_EventLoopScheduleCancelChurn(benchmark::State& state) {
  // Retransmit-timer profile: arm a timer, cancel it before it fires, arm
  // the next. Exercises slot recycling + generation bumping, with no event
  // ever executing.
  simnet::EventLoop loop;
  int armed = 0;
  for (auto _ : state) {
    const simnet::TimerId keep = loop.schedule_after(ms(5), [&armed] { ++armed; });
    const simnet::TimerId drop = loop.schedule_after(ms(10), [&armed] { ++armed; });
    benchmark::DoNotOptimize(loop.cancel(drop));
    benchmark::DoNotOptimize(loop.cancel(keep));
    loop.run_for(ms(0));  // prune the two dead heap nodes
  }
  benchmark::DoNotOptimize(armed);
}
BENCHMARK(BM_EventLoopScheduleCancelChurn);

void BM_EventLoopTimerChain(benchmark::State& state) {
  // Each callback schedules its successor — the self-sustaining pattern of
  // HE attempt timers. Measures steady-state schedule+dispatch cost.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simnet::EventLoop loop;
    int remaining = n;
    struct Chain {
      simnet::EventLoop* loop;
      int* remaining;
      void operator()() const {
        if (--*remaining > 0) loop->schedule_after(ms(1), *this);
      }
    };
    loop.schedule_after(ms(0), Chain{&loop, &remaining});
    loop.run();
    benchmark::DoNotOptimize(remaining);
  }
}
BENCHMARK(BM_EventLoopTimerChain)->Arg(1000)->Arg(10000);

void BM_InlineCallbackSmall(benchmark::State& state) {
  // Construction + dispatch of a capture that fits the inline buffer (the
  // common timer lambda shape: a couple of pointers).
  std::uint64_t counter = 0;
  std::uint64_t* p = &counter;
  for (auto _ : state) {
    simnet::InlineCallback cb{[p] { ++*p; }};
    cb();
    benchmark::DoNotOptimize(cb.is_inline());
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_InlineCallbackSmall);

void BM_StdFunctionSmall(benchmark::State& state) {
  // Same callable through std::function, for the comparison row.
  std::uint64_t counter = 0;
  std::uint64_t* p = &counter;
  for (auto _ : state) {
    std::function<void()> cb{[p] { ++*p; }};
    cb();
    benchmark::DoNotOptimize(&cb);
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_StdFunctionSmall);

void BM_NetemProcess(benchmark::State& state) {
  simnet::NetemQdisc qdisc;
  qdisc.add_rule(simnet::PacketFilter::for_family(simnet::Family::kIpv6),
                 simnet::NetemSpec{ms(100), ms(10), 0.01});
  Rng rng{1};
  simnet::Packet packet;
  packet.src = {simnet::IpAddress::must_parse("2001:db8::1"), 1};
  packet.dst = {simnet::IpAddress::must_parse("2001:db8::2"), 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(qdisc.process(packet, rng));
  }
}
BENCHMARK(BM_NetemProcess);

void BM_AddressSelection(benchmark::State& state) {
  he::SelectionInput input;
  for (int i = 1; i <= 10; ++i) {
    input.ipv6.push_back({simnet::IpAddress::must_parse(
        "2001:db8::" + std::to_string(i)), std::nullopt, false});
    input.ipv4.push_back({simnet::IpAddress::must_parse(
        "10.0.0." + std::to_string(i)), std::nullopt, false});
  }
  he::HeOptions options;
  options.first_address_family_count = 2;
  options.interlace = he::InterlaceMode::kFirstOtherThenRest;
  for (auto _ : state) {
    benchmark::DoNotOptimize(he::select_addresses(input, options));
  }
}
BENCHMARK(BM_AddressSelection);

void BM_FullHappyEyeballsSession(benchmark::State& state) {
  for (auto _ : state) {
    simnet::Network net{1};
    simnet::Host& client_host = net.add_host("client");
    client_host.add_address(simnet::IpAddress::must_parse("10.0.0.2"));
    client_host.add_address(simnet::IpAddress::must_parse("2001:db8::2"));
    simnet::Host& server_host = net.add_host("server");
    server_host.add_address(simnet::IpAddress::must_parse("10.0.0.80"));
    server_host.add_address(simnet::IpAddress::must_parse("2001:db8::80"));

    transport::TcpStack server_tcp{server_host};
    server_tcp.listen(443);
    dns::AuthServer auth{server_host};
    dns::Zone& zone = auth.add_zone(dns::DnsName::must_parse("he.lab"));
    const auto name = dns::DnsName::must_parse("www.he.lab");
    zone.add_a(name, *simnet::Ipv4Address::parse("10.0.0.80"));
    zone.add_aaaa(name, *simnet::Ipv6Address::parse("2001:db8::80"));

    dns::StubOptions stub_options;
    stub_options.servers = {{simnet::IpAddress::must_parse("10.0.0.80"), 53}};
    dns::StubResolver stub{client_host, stub_options};
    transport::TcpStack client_tcp{client_host};
    he::HappyEyeballsEngine engine{client_host, stub, client_tcp};
    engine.set_options(he::HeOptions::rfc8305());

    bool ok = false;
    engine.connect(name, 443, [&ok](const he::HeResult& r) { ok = r.ok; });
    net.loop().run();
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_FullHappyEyeballsSession);

}  // namespace

BENCHMARK_MAIN();
