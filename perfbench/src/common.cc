#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>

#include "speed.h"

namespace perf {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

namespace {

/// Whole-token unsigned decimal; rejects signs, blanks and overflow.
bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string quoted(const std::string& s) {
  std::string out;
  out.push_back('"');
  out += json_escape(s);
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool parse_options(int argc, const char* const* argv, Options& out,
                   std::string& error) {
  bool have_workload = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--setup-only") {
      out.setup_only = true;
      continue;
    }
    if (a + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++a];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      out.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, number)) {
        error = std::string{"bad --seed: "} + value;
        return false;
      }
      out.seed = number;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number < 1 || number > 600) {
        error = std::string{"bad --seconds (1..600): "} + value;
        return false;
      }
      out.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        error = std::string{"bad --trace (0 or 1): "} + value;
        return false;
      }
      out.traced = value[0] == '1';
    } else if (flag == "--work-dir") {
      out.work_dir = value;
    } else if (flag == "--trace-out") {
      out.trace_out = value;
    } else {
      error = "unknown argument: " + flag;
      return false;
    }
  }
  if (!have_workload) {
    error = "--workload is required";
    return false;
  }
  return true;
}

void Report::info(const std::string& name, const std::string& value) {
  info_[name] = quoted(value);
}

void Report::info(const std::string& name, double value) {
  info_[name] = json_number(value);
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  all_ok_ = all_ok_ && ok;
  std::string entry = "{\"name\": ";
  entry += quoted(name);
  entry += ok ? ", \"ok\": true, \"detail\": " : ", \"ok\": false, \"detail\": ";
  entry += quoted(detail);
  entry += '}';
  checks_.push_back(std::move(entry));
}

bool Report::checks_ok() const { return all_ok_ && !checks_.empty(); }

void Report::end_setup() {
  setup_end_ns = now_ns();
  setup_scale = speed_scale(5);
}

std::string Report::json() const {
  std::string out = "{\"setup_end_ns\": ";
  out += std::to_string(setup_end_ns);
  out += ", \"setup_scale\": ";
  out += json_number(setup_scale);
  out += ", \"workers\": ";
  out += std::to_string(workers);
  out += ", \"attempted\": ";
  out += std::to_string(attempted);
  out += ", \"failed\": ";
  out += std::to_string(failed);
  out += checks_ok() ? ", \"correct\": true" : ", \"correct\": false";
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ", ";
    out += checks_[i];
  }
  const auto append_object = [&out](const auto& entries, const auto& render) {
    bool first = true;
    for (const auto& [name, value] : entries) {
      if (!first) out += ", ";
      first = false;
      out += quoted(name);
      out += ": ";
      out += render(value);
    }
  };
  out += "], \"metrics\": {";
  append_object(metrics_, [](double v) { return json_number(v); });
  out += "}, \"info\": {";
  append_object(info_, [](const std::string& v) { return v; });
  out += "}}";
  return out;
}

void on_fresh_thread(const std::function<void()>& body) {
  std::exception_ptr error;
  std::thread thread{[&] {
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
  }};
  thread.join();
  if (error) std::rethrow_exception(error);
}

lazyeye::campaign::SpecStream concat(
    std::vector<lazyeye::campaign::SpecStream> parts) {
  auto owned = std::make_shared<std::vector<lazyeye::campaign::SpecStream>>(
      std::move(parts));
  std::size_t total = 0;
  for (const auto& part : *owned) total += part.size();
  return lazyeye::campaign::SpecStream{
      total, [owned](std::size_t i) {
        const std::size_t id = i;
        for (const auto& part : *owned) {
          if (i < part.size()) {
            lazyeye::campaign::ScenarioSpec spec = part.at(i);
            spec.id = id;
            return spec;
          }
          i -= part.size();
        }
        return lazyeye::campaign::ScenarioSpec{};  // unreachable: i < total
      }};
}

void CampaignLedger::add_pass(const lazyeye::campaign::SpecStream& specs,
                              const std::vector<std::uint64_t>& cell_ns,
                              const PassTiming& timing) {
  wall_ns += static_cast<double>(timing.wall_ns);
  exec_ns += static_cast<double>(timing.exec_ns);
  cells += static_cast<double>(cell_ns.size());
  reorder_high_water = std::max(reorder_high_water,
                                static_cast<double>(timing.reorder_high_water));
  const auto* backed = specs.backing();
  for (std::size_t i = 0; i < cell_ns.size(); ++i) {
    const auto kind = static_cast<std::size_t>(
        backed != nullptr ? (*backed)[i].kind() : specs.at(i).kind());
    kind_ns[kind].push_back(static_cast<double>(cell_ns[i]));
  }
}

void CampaignLedger::emit(Report& report, double cells_per_s) {
  using lazyeye::campaign::CaseKind;
  struct KindMetric {
    CaseKind kind;
    const char* name;
    double scale;  // ns -> reported unit
  };
  static const KindMetric kKindMetrics[] = {
      {CaseKind::kCad, "exec.cad_us_p50", 1e-3},
      {CaseKind::kResolutionDelay, "exec.rd_us_p50", 1e-3},
      {CaseKind::kAddressSelection, "exec.addrsel_us_p50", 1e-3},
      {CaseKind::kWebRepetition, "exec.webtool_rep_ms_p50", 1e-6},
      {CaseKind::kResolverCell, "exec.resolver_cell_ms_p50", 1e-6},
      {CaseKind::kConformance, "exec.fault_cell_us_p50", 1e-3},
      {CaseKind::kSchedule, "exec.schedule_cell_us_p50", 1e-3},
  };
  for (const KindMetric& m : kKindMetrics) {
    auto& samples = kind_ns[static_cast<std::size_t>(m.kind)];
    report.metric(m.name, quantile(samples, 0.5) * m.scale);
  }
  const double capacity = static_cast<double>(workers) * wall_ns;
  report.metric("campaign.dispatch_overhead_share",
                capacity > 0 ? 1.0 - exec_ns / capacity : 0.0);
  report.metric("campaign.reorder_high_water", reorder_high_water);
  report.metric("campaign.sink_us_per_cell",
                sink_cells > 0 ? sink_ns / sink_cells / 1e3 : 0.0);
  report.metric("campaign.setup_spec_gen_s", spec_gen_s);
  report.metric("trace.cells_per_s", cells_per_s);
}

void ChunkTimes::begin_chunk() {
  scale_ = speed_scale();
  scales_.push_back(scale_);
  chunk_begin_ = cell_ms_.size();
}

void ChunkTimes::add_cells(double ns, std::size_t count) {
  cell_ms_.insert(cell_ms_.end(), count, ns * scale_ / 1e6);
  raw_cell_ms_.insert(raw_cell_ms_.end(), count, ns / 1e6);
}

void ChunkTimes::end_chunk(double cells, double wall_ns) {
  const double raw = wall_ns > 0 ? cells / (wall_ns / 1e9) : 0.0;
  raw_rates_.push_back(raw);
  rates_.push_back(raw / scale_);
  raw_wall_ns_ += wall_ns;
  const auto first = static_cast<std::ptrdiff_t>(chunk_begin_);
  std::vector<double> chunk(cell_ms_.begin() + first, cell_ms_.end());
  chunk_p99_.push_back(quantile(chunk, 0.99));
  chunk.assign(raw_cell_ms_.begin() + first, raw_cell_ms_.end());
  raw_chunk_p99_.push_back(quantile(chunk, 0.99));
}

double ChunkTimes::cells_per_s() const {
  std::vector<double> rates = rates_;
  return quantile(rates, 0.5);
}

void ChunkTimes::report(Report& report) const {
  std::vector<double> cell_ms = cell_ms_, raw_cell_ms = raw_cell_ms_;
  std::vector<double> raw_rates = raw_rates_, scales = scales_;
  std::vector<double> p99 = chunk_p99_, raw_p99 = raw_chunk_p99_;
  report.metric("cells_per_s", cells_per_s());
  report.metric("cell_ms_p50", quantile(cell_ms, 0.50));
  report.metric("cell_ms_p99", quantile(p99, 0.5));
  report.info("cell_samples", static_cast<double>(cell_ms.size()));
  report.info("chunks", static_cast<double>(rates_.size()));
  report.info("speed_scale_p50", quantile(scales, 0.5));
  report.info("raw_cells_per_s", quantile(raw_rates, 0.5));
  report.info("raw_cell_ms_p50", quantile(raw_cell_ms, 0.50));
  report.info("raw_cell_ms_p99", quantile(raw_p99, 0.5));
  report.info("raw_cells_per_s_pooled",
              raw_wall_ns_ > 0 ? static_cast<double>(cell_ms.size()) / (raw_wall_ns_ / 1e9)
                               : 0.0);
  report.info("timed_wall_s", raw_wall_ns_ / 1e9);
}

}  // namespace perf
