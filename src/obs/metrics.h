#ifndef FGRO_OBS_METRICS_H_
#define FGRO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fgro {
namespace obs {

/// Monotonic counter. Increment-only by construction: there is no Set or
/// Decrement, so a registry snapshot can never observe a counter move
/// backwards. Relaxed atomics — counters are statistics, not
/// synchronization.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (queue depth, CoDel target, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram: `upper_bounds` are the finite bucket upper
/// bounds (sorted ascending); one implicit overflow bucket catches
/// everything above the last bound. Observe() is lock-free (relaxed atomic
/// bucket bumps), so workers can record on the hot path without touching
/// the registry lock.
///
/// Quantile() walks the cumulative bucket counts and interpolates linearly
/// inside the winning bucket (the first bucket interpolates from 0, the
/// overflow bucket reports the last finite bound). The error is therefore
/// bounded by one bucket width — pick boundaries accordingly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double Quantile(double q) const;

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) count; index bounds_.size() is overflow.
  uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::size_t num_buckets() const { return buckets_.size(); }

  /// `count` bounds growing geometrically from `start` by `factor`.
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int count);
  /// Default latency boundaries: 0.1 ms .. ~1.9e3 s in x1.4 steps (50
  /// buckets + overflow), shared by every *_seconds histogram so
  /// breakdowns compare like with like.
  static const std::vector<double>& LatencyBounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exact sample quantile (sorts a copy; 0 when empty). The one shared
/// implementation of the hand-rolled percentile that used to live in the
/// RO service: use this for small rolling windows where exactness matters,
/// and Histogram::Quantile for unbounded streams.
double QuantileOfSamples(std::vector<double> values, double q);

/// Lock-striped name -> metric registry. Get-or-create takes one stripe
/// mutex (stripe chosen by name hash) and returns a pointer that stays
/// valid for the registry's lifetime, so hot paths resolve their handles
/// once and never touch a lock again. Metrics with the same name and type
/// are shared; a histogram re-lookup ignores the boundary argument and
/// returns the existing instance.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& upper_bounds);
  Histogram* GetLatencyHistogram(const std::string& name) {
    return GetHistogram(name, Histogram::LatencyBounds());
  }

  /// Point-in-time copy of every metric, name-sorted (std::map) so two
  /// snapshots of identical registries serialize identically.
  struct HistogramView {
    uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// (upper bound, count) per bucket; the overflow bucket carries an
    /// infinite bound.
    std::vector<std::pair<double, uint64_t>> buckets;
  };
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramView> histograms;
  };
  Snapshot Snap() const;

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };
  Stripe& StripeOf(const std::string& name) {
    return stripes_[std::hash<std::string>{}(name) % kStripes];
  }

  Stripe stripes_[kStripes];
};

}  // namespace obs
}  // namespace fgro

#endif  // FGRO_OBS_METRICS_H_
