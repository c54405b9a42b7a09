// Streaming-sketch result aggregation: O(1)-memory-per-metric summaries for
// campaigns too large to materialise (the ROADMAP's "million-cell grids never
// materialise" goal needs CDF-style outputs without per-cell records).
//
// Three pieces:
//   - P2Quantile: the Jain & Chlamtac P² online quantile estimator — five
//     markers updated per observation, no sample buffer after warm-up.
//   - MetricSketch: count/sum/min/max folded exactly, plus P² p50/p95/p99.
//   - SketchSink<R>: a ResultSink that folds named metrics extracted from
//     each outcome as it streams past, and TeeSink<R> to feed a Collecting-
//     Sink and a SketchSink from one campaign pass.
//
// Determinism: CampaignRunner delivers cells in spec order regardless of
// worker count (sink.h contract), and every update below is a fixed sequence
// of IEEE double operations on the delivered values — so the complete sketch
// state is bit-identical for 1 and N workers. fingerprint() exposes that
// state as hex-encoded bit patterns for exact comparison in tests.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/sink.h"
#include "util/wire.h"

namespace lazyeye::campaign {

/// P² (piecewise-parabolic) online estimator for a single quantile
/// (Jain & Chlamtac, CACM 1985). Constant state: five marker heights and
/// positions. Until five observations arrive the raw samples are kept and
/// the estimate is read from the sorted warm-up buffer.
class P2Quantile {
 public:
  explicit P2Quantile(double p) : p_{p} {}

  void add(double x) {
    if (count_ < 5) {
      warmup_[count_++] = x;
      if (count_ == 5) {
        std::sort(warmup_.begin(), warmup_.end());
        for (int i = 0; i < 5; ++i) {
          q_[i] = warmup_[i];
          n_[i] = i + 1;
        }
        np_[0] = 1.0;
        np_[1] = 1.0 + 2.0 * p_;
        np_[2] = 1.0 + 4.0 * p_;
        np_[3] = 3.0 + 2.0 * p_;
        np_[4] = 5.0;
      }
      return;
    }
    ++count_;

    // Cell k such that q[k] <= x < q[k+1]; extremes widen the end markers.
    int k;
    if (x < q_[0]) {
      q_[0] = x;
      k = 0;
    } else if (x >= q_[4]) {
      q_[4] = x;
      k = 3;
    } else {
      k = 0;
      while (k < 3 && x >= q_[k + 1]) ++k;
    }

    for (int i = k + 1; i < 5; ++i) n_[i] += 1.0;
    np_[1] += p_ / 2.0;
    np_[2] += p_;
    np_[3] += (1.0 + p_) / 2.0;
    np_[4] += 1.0;

    for (int i = 1; i <= 3; ++i) {
      const double d = np_[i] - n_[i];
      if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
          (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
        const double s = d >= 0 ? 1.0 : -1.0;
        const double candidate = parabolic(i, s);
        if (q_[i - 1] < candidate && candidate < q_[i + 1]) {
          q_[i] = candidate;
        } else {
          q_[i] = linear(i, s);
        }
        n_[i] += s;
      }
    }
  }

  /// Current estimate; NaN with no observations.
  double estimate() const {
    if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
    if (count_ < 5) {
      // Nearest-rank on the sorted warm-up samples.
      std::array<double, 5> sorted = warmup_;
      std::sort(sorted.begin(), sorted.begin() + count_);
      const auto rank = static_cast<std::size_t>(
          std::ceil(p_ * static_cast<double>(count_)));
      return sorted[std::min(count_ - 1, rank > 0 ? rank - 1 : 0)];
    }
    return q_[2];
  }

  std::uint64_t count() const { return count_; }

  /// Appends the full internal state as hex bit patterns (see fingerprint
  /// rationale in the header comment).
  void append_state(std::string& out) const;

  /// Binary state for journal snapshots; load_binary is the exact inverse
  /// (bit-identical restore). p_ is NOT serialised — it is construction
  /// configuration, and restore must target an identically-built sketch.
  void save_binary(std::string& out) const;
  bool load_binary(wire::Reader& in);

 private:
  double parabolic(int i, double s) const {
    return q_[i] + s / (n_[i + 1] - n_[i - 1]) *
                       ((n_[i] - n_[i - 1] + s) * (q_[i + 1] - q_[i]) /
                            (n_[i + 1] - n_[i]) +
                        (n_[i + 1] - n_[i] - s) * (q_[i] - q_[i - 1]) /
                            (n_[i] - n_[i - 1]));
  }

  double linear(int i, double s) const {
    const int j = i + static_cast<int>(s);
    return q_[i] + s * (q_[j] - q_[i]) / (n_[j] - n_[i]);
  }

  double p_;
  std::uint64_t count_ = 0;  // doubles as warm-up fill level below 5
  std::array<double, 5> warmup_{};
  std::array<double, 5> q_{};   // marker heights
  std::array<double, 5> n_{};   // marker positions (1-based, as in the paper)
  std::array<double, 5> np_{};  // desired marker positions
};

/// Online summary of one scalar metric: exact count/sum/min/max plus P²
/// estimates for the median and the tail. O(1) state per metric.
class MetricSketch {
 public:
  void add(double x) {
    ++count_;
    sum_ += x;
    if (count_ == 1 || x < min_) min_ = x;
    if (count_ == 1 || x > max_) max_ = x;
    p50_.add(x);
    p95_.add(x);
    p99_.add(x);
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN()
                       : sum_ / static_cast<double>(count_);
  }
  double min() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
  }
  double max() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
  }
  double p50() const { return p50_.estimate(); }
  double p95() const { return p95_.estimate(); }
  double p99() const { return p99_.estimate(); }

  /// Hex encoding of the complete state (count, sum, min, max, all three
  /// quantile sketches) — equal strings iff the states are bit-identical.
  std::string fingerprint() const;

  /// Binary state for journal snapshots (same coverage as fingerprint()).
  void save_binary(std::string& out) const;
  bool load_binary(wire::Reader& in);

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  P2Quantile p50_{0.50};
  P2Quantile p95_{0.95};
  P2Quantile p99_{0.99};
};

namespace sketch_detail {

inline void append_hex_u64(std::string& out, std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(v >> shift) & 0xF]);
  }
}

inline void append_hex_double(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  append_hex_u64(out, bits);
}

}  // namespace sketch_detail

inline void P2Quantile::append_state(std::string& out) const {
  sketch_detail::append_hex_u64(out, count_);
  for (double v : warmup_) sketch_detail::append_hex_double(out, v);
  for (double v : q_) sketch_detail::append_hex_double(out, v);
  for (double v : n_) sketch_detail::append_hex_double(out, v);
  for (double v : np_) sketch_detail::append_hex_double(out, v);
}

inline void P2Quantile::save_binary(std::string& out) const {
  wire::put_u64(out, count_);
  for (double v : warmup_) wire::put_f64(out, v);
  for (double v : q_) wire::put_f64(out, v);
  for (double v : n_) wire::put_f64(out, v);
  for (double v : np_) wire::put_f64(out, v);
}

inline bool P2Quantile::load_binary(wire::Reader& in) {
  count_ = in.u64();
  for (double& v : warmup_) v = in.f64();
  for (double& v : q_) v = in.f64();
  for (double& v : n_) v = in.f64();
  for (double& v : np_) v = in.f64();
  return in.ok;
}

inline std::string MetricSketch::fingerprint() const {
  std::string out;
  out.reserve(16 * (4 + 3 * 21));
  sketch_detail::append_hex_u64(out, count_);
  sketch_detail::append_hex_double(out, sum_);
  sketch_detail::append_hex_double(out, min_);
  sketch_detail::append_hex_double(out, max_);
  p50_.append_state(out);
  p95_.append_state(out);
  p99_.append_state(out);
  return out;
}

inline void MetricSketch::save_binary(std::string& out) const {
  wire::put_u64(out, count_);
  wire::put_f64(out, sum_);
  wire::put_f64(out, min_);
  wire::put_f64(out, max_);
  p50_.save_binary(out);
  p95_.save_binary(out);
  p99_.save_binary(out);
}

inline bool MetricSketch::load_binary(wire::Reader& in) {
  count_ = in.u64();
  sum_ = in.f64();
  min_ = in.f64();
  max_ = in.f64();
  return p50_.load_binary(in) && p95_.load_binary(in) && p99_.load_binary(in);
}

/// Folds named metrics out of the result stream, one MetricSketch each.
/// Extractors returning nullopt skip the cell for that metric (e.g. a failed
/// fetch has no completion time). Memory is O(metrics), independent of the
/// matrix size.
template <typename R>
class SketchSink final : public ResultSink<R> {
 public:
  /// Pulls one scalar out of a delivered cell, or nullopt to skip it.
  using Extractor =
      std::function<std::optional<double>(const ScenarioSpec&, const R&)>;

  SketchSink& add_metric(std::string name, Extractor extract) {
    metrics_.push_back(Metric{std::move(name), std::move(extract), {}});
    return *this;
  }

  void cell(const ScenarioSpec& spec, R outcome) override {
    ++cells_seen_;
    for (Metric& m : metrics_) {
      if (const auto v = m.extract(spec, outcome)) m.sketch.add(*v);
    }
  }

  std::size_t cells_seen() const { return cells_seen_; }

  const MetricSketch* find(std::string_view name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m.sketch;
    }
    return nullptr;
  }

  /// name:hex lines for every metric, in registration order; bit-identical
  /// across worker counts (see header comment).
  std::string fingerprint() const {
    std::string out;
    for (const Metric& m : metrics_) {
      out.append(m.name);
      out.push_back(':');
      out.append(m.sketch.fingerprint());
      out.push_back('\n');
    }
    return out;
  }

  /// Journal snapshot hook: the complete fold state (cells seen plus every
  /// metric's sketch, keyed by name so a drifted metric set is detected).
  bool save_state(std::string& out) const override {
    out.append("SKS1");
    wire::put_u64(out, cells_seen_);
    wire::put_u64(out, metrics_.size());
    for (const Metric& m : metrics_) {
      wire::put_u64(out, m.name.size());
      out.append(m.name);
      m.sketch.save_binary(out);
    }
    return true;
  }

  bool restore_state(std::string_view state) override {
    wire::Reader in{state};
    if (in.view(4) != "SKS1") return false;
    const std::uint64_t cells = in.u64();
    if (in.u64() != metrics_.size()) return false;
    for (Metric& m : metrics_) {
      const std::uint64_t name_len = in.u64();
      if (in.view(static_cast<std::size_t>(name_len)) != m.name) return false;
      if (!m.sketch.load_binary(in)) return false;
    }
    if (!in.ok || in.pos != state.size()) return false;
    cells_seen_ = static_cast<std::size_t>(cells);
    return true;
  }

 private:
  struct Metric {
    std::string name;
    Extractor extract;
    MetricSketch sketch;
  };
  std::vector<Metric> metrics_;
  std::size_t cells_seen_ = 0;
};

/// Delivers every sink event to two sinks (first, then second) so one
/// campaign pass can materialise a matrix *and* fold sketches. The outcome
/// is copied for the first sink and moved into the second.
template <typename R>
class TeeSink final : public ResultSink<R> {
 public:
  TeeSink(ResultSink<R>& first, ResultSink<R>& second)
      : first_{first}, second_{second} {}

  void begin(std::size_t cells_total) override {
    first_.begin(cells_total);
    second_.begin(cells_total);
  }

  void cell(const ScenarioSpec& spec, R outcome) override {
    first_.cell(spec, outcome);
    second_.cell(spec, std::move(outcome));
  }

  void cell_failed(const ScenarioSpec& spec,
                   const FailureReport& report) override {
    first_.cell_failed(spec, report);
    second_.cell_failed(spec, report);
  }

  /// Snapshots both branches (length-prefixed); available only when both
  /// sinks have snapshot support.
  bool save_state(std::string& out) const override {
    std::string a, b;
    if (!first_.save_state(a) || !second_.save_state(b)) return false;
    wire::put_u64(out, a.size());
    out.append(a);
    wire::put_u64(out, b.size());
    out.append(b);
    return true;
  }

  bool restore_state(std::string_view state) override {
    wire::Reader in{state};
    const std::string_view a = in.view(static_cast<std::size_t>(in.u64()));
    if (!in.ok || !first_.restore_state(a)) return false;
    const std::string_view b = in.view(static_cast<std::size_t>(in.u64()));
    return in.ok && in.pos == state.size() && second_.restore_state(b);
  }

  void end() override {
    first_.end();
    second_.end();
  }

 private:
  ResultSink<R>& first_;
  ResultSink<R>& second_;
};

}  // namespace lazyeye::campaign
