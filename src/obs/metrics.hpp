// Deterministic process-wide metrics: counters, gauges, fixed-bucket
// histograms.
//
// Every hot path in the library (simulator round loop, flow solvers, thread
// pool, sweep engine) increments metrics registered here. Two properties make
// the layer safe to leave permanently enabled:
//
//   1. Determinism. Counters and histograms are purely additive over
//      thread-local shards, and addition of unsigned integers is commutative —
//      so as long as the *multiset* of increments is thread-count-invariant
//      (the repo's core contract), the merged totals are bit-identical at any
//      thread count. Metrics whose increment multiset inherently depends on
//      scheduling (steal counts, trace-ring drops) or on wall time are tagged
//      Stability::kScheduling / kWallClock so consumers (tests, baseline
//      tooling) can exclude them; everything else defaults to kStable and is
//      covered by the cross-thread-count determinism tests.
//   2. Cost. A counter increment is one relaxed fetch_add on a cache-line-
//      padded thread-local shard; there is no lock, no branch on an "enabled"
//      flag, and no allocation. Handles are resolved once through a
//      function-local static and are stable for the process lifetime.
//
// Naming convention: "module/name" (e.g. "flow/dinic_phases",
// "pool/executed_stolen"). Snapshots are ordered by name, so every export is
// deterministic as well.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace p2pvod::obs {

/// How a metric's value relates to the determinism contract.
enum class Stability : std::uint8_t {
  /// Thread-count-invariant: identical at 1/4/8 threads for a fixed seed.
  /// The default; the cross-thread determinism tests assert it.
  kStable,
  /// Depends on scheduling (steals, helping runs, ring drops). Real work
  /// accounting, but not comparable across thread counts.
  kScheduling,
  /// Derived from wall time; never comparable across runs.
  kWallClock,
};

/// Stable lowercase name ("stable" / "scheduling" / "wall-clock") used in
/// the JSON export.
[[nodiscard]] std::string_view stability_name(Stability stability);

/// Shards per metric. Threads hash onto shards round-robin; 16 slots keeps
/// contention negligible at any sane pool size while bounding the footprint
/// (one cache line per shard).
inline constexpr std::size_t kMetricShards = 16;

/// Index of the calling thread's shard (assigned round-robin on first use).
[[nodiscard]] std::size_t metric_shard_index() noexcept;

/// Monotonic additive metric. add() is wait-free (relaxed fetch_add on the
/// caller's shard); value() sums the shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[metric_shard_index()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Stability stability() const noexcept { return stability_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, Stability stability)
      : name_(std::move(name)), stability_(stability) {}

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
  std::string name_;
  Stability stability_;
};

/// Last-writer-wins instantaneous value (configured sizes, high-water marks
/// via record_max). Not sharded: sets are rare and order-dependent anyway.
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }

  /// Monotonic high-water update.
  void record_max(std::int64_t value) noexcept {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (value > seen && !value_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Stability stability() const noexcept { return stability_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, Stability stability)
      : name_(std::move(name)), stability_(stability) {}

  std::atomic<std::int64_t> value_{0};
  std::string name_;
  Stability stability_;
};

/// Fixed-bucket integer histogram. Observations are unsigned integers
/// (counts, lengths, depths) so the running sum merges deterministically —
/// no floating-point accumulation order to worry about. Bucket i counts
/// observations <= bounds[i]; one implicit overflow bucket catches the rest.
class Histogram {
 public:
  void observe(std::uint64_t value) noexcept { observe(value, 1); }
  /// `count` observations of `value` at once: the same buckets and sum as
  /// `count` calls of observe(value), for a caller that tallies locally.
  void observe(std::uint64_t value, std::uint64_t count) noexcept {
    Shard& shard = shards_[metric_shard_index()];
    shard.buckets[bucket_of(value)].fetch_add(count,
                                              std::memory_order_relaxed);
    shard.sum.fetch_add(value * count, std::memory_order_relaxed);
  }

  /// Merged per-bucket counts (bounds().size() + 1 entries, overflow last).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum() const noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Stability stability() const noexcept { return stability_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, Stability stability,
            std::vector<std::uint64_t> bounds);

  [[nodiscard]] std::size_t bucket_of(std::uint64_t value) const noexcept {
    std::size_t low = 0;
    std::size_t high = bounds_.size();  // == overflow bucket
    while (low < high) {
      const std::size_t mid = low + (high - low) / 2;
      if (value <= bounds_[mid]) {
        high = mid;
      } else {
        low = mid + 1;
      }
    }
    return low;
  }

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_;
  std::vector<std::uint64_t> bounds_;
  std::string name_;
  Stability stability_;
};

/// One metric's merged value at a point in time.
struct MetricValue {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  Stability stability = Stability::kStable;
  std::uint64_t count = 0;  ///< counter value, or histogram observation count
  std::int64_t gauge = 0;   ///< gauge value
  std::uint64_t sum = 0;    ///< histogram sum of observations
  std::vector<std::uint64_t> bounds;   ///< histogram bucket upper bounds
  std::vector<std::uint64_t> buckets;  ///< histogram counts (overflow last)

  bool operator==(const MetricValue&) const = default;
};

/// Name-ordered snapshot of every registered metric. Ordered map iteration
/// keeps exports deterministic.
struct MetricsSnapshot {
  std::map<std::string, MetricValue> values;

  /// Counters/histograms become deltas against `earlier` (absent-in-earlier
  /// metrics keep their full value); gauges keep their current value. The
  /// scenario runner uses this to attribute process-wide totals to one run.
  [[nodiscard]] MetricsSnapshot delta_since(
      const MetricsSnapshot& earlier) const;

  /// Subset with the given stability tag (determinism tests compare the
  /// kStable slice across thread counts).
  [[nodiscard]] MetricsSnapshot with_stability(Stability stability) const;

  /// The "metrics" block of BENCH_<id>.json: one object per metric, keyed by
  /// name, each carrying kind/stability and its value fields.
  [[nodiscard]] util::json::Value to_json() const;
};

/// Process-wide metric registry. Registration is idempotent by name;
/// re-registering a name as a different kind (or a histogram with different
/// bounds) throws std::logic_error. The global() instance is intentionally
/// leaked so metric handles stay valid through static destruction (the
/// global ThreadPool's workers may outlive ordinary statics).
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name,
                                 Stability stability = Stability::kStable);
  [[nodiscard]] Gauge& gauge(std::string_view name,
                             Stability stability = Stability::kStable);
  [[nodiscard]] Histogram& histogram(
      std::string_view name, std::vector<std::uint64_t> bounds,
      Stability stability = Stability::kStable);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Power-of-two bucket bounds {1, 2, 4, ..., 2^max_pow2} — the usual shape
/// for count/length distributions.
[[nodiscard]] std::vector<std::uint64_t> pow2_bounds(std::uint32_t max_pow2);

}  // namespace p2pvod::obs
