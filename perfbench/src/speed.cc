#include "speed.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace perf {

namespace {

// Sizes of the kernel's four parts, chosen so each takes a similar share of
// its time. Together they mimic what a cell spends its time on: dependent
// loads across world structures, the event loop's timer heap, hash-map
// churn with node allocations, and short strings.
constexpr std::uint32_t kChaseSlots = 1u << 17;  // 512 KiB of links
constexpr int kChaseSteps = 1 << 14;
constexpr int kHeapItems = 2048;
constexpr int kMapItems = 2048;
constexpr int kStrings = 512;

volatile std::uint64_t g_sink = 0;

std::uint64_t split_mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One random cycle through every slot (Sattolo's algorithm), built once.
const std::vector<std::uint32_t>& chase_links() {
  static const std::vector<std::uint32_t> links = [] {
    std::vector<std::uint32_t> next(kChaseSlots);
    for (std::uint32_t i = 0; i < kChaseSlots; ++i) next[i] = i;
    std::uint64_t state = 7;
    for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
      std::swap(next[i], next[split_mix(state) % i]);
    }
    return next;
  }();
  return links;
}

std::uint64_t kernel_once() {
  std::uint64_t state = 1;
  std::uint64_t sum = 0;

  const std::vector<std::uint32_t>& next = chase_links();
  std::uint32_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) at = next[at];
  sum += at;

  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  for (int i = 0; i < kHeapItems; ++i) heap.push(split_mix(state) >> 20);
  while (!heap.empty()) {
    sum += heap.top();
    heap.pop();
  }

  std::unordered_map<std::uint64_t, std::uint32_t> map;
  for (int i = 0; i < kMapItems; ++i) map[split_mix(state) & 0xffff] = i;
  std::uint64_t probe = 1;
  for (int i = 0; i < kMapItems; ++i) {
    const auto it = map.find(split_mix(probe) & 0xffff);
    if (it != map.end()) {
      sum += it->second;
      map.erase(it);
    }
  }

  std::vector<std::string> strings;
  strings.reserve(kStrings);
  for (int i = 0; i < kStrings; ++i) {
    std::string s;
    const std::uint64_t length = 8 + split_mix(state) % 56;
    for (std::uint64_t k = 0; k < length; ++k) {
      s.push_back(static_cast<char>('a' + split_mix(state) % 26));
    }
    strings.push_back(std::move(s));
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& s : strings) {
    for (const char c : s) hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return sum + hash;
}

}  // namespace

std::uint64_t reference_kernel_ns(int repeats) {
  chase_links();
  std::uint64_t best = ~std::uint64_t{0};
  for (int r = 0; r < std::max(1, repeats); ++r) {
    const std::uint64_t start = now_ns();
    g_sink = g_sink + kernel_once();
    best = std::min(best, now_ns() - start);
  }
  return std::max<std::uint64_t>(best, 1);
}

double speed_scale(int repeats) {
  return kReferenceNs / static_cast<double>(reference_kernel_ns(repeats));
}

}  // namespace perf
