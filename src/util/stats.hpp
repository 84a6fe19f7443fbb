// Lightweight statistics used by experiment harnesses and reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace p2pvod::util {

/// Welford online accumulator: mean / variance / min / max in one pass.
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 when fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Exact running total (Neumaier-compensated), not mean·count — the
  /// Welford mean carries per-sample rounding that a reconstructed sum
  /// amplifies by count under catastrophic cancellation.
  [[nodiscard]] double sum() const noexcept { return sum_ + comp_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;   ///< compensated running total
  double comp_ = 0.0;  ///< Neumaier compensation term for sum_
};

/// Exact quantile of a sample (linear interpolation between order statistics).
/// q in [0,1]; empty input throws.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Wilson score interval for a binomial proportion (successes out of trials);
/// far better behaved than the normal interval for success rates near 0 or 1,
/// which is exactly where our feasibility experiments live.
struct Proportion {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};
[[nodiscard]] Proportion wilson_interval(std::size_t successes,
                                         std::size_t trials,
                                         double z = 1.96);

/// Integer histogram with mean/percentile extraction; used for startup-delay
/// and box-load distributions.
class Histogram {
 public:
  void add(std::int64_t value, std::uint64_t weight = 1);
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] std::int64_t min() const;
  [[nodiscard]] std::int64_t max() const;
  /// Smallest value v such that at least q of the mass is <= v.
  [[nodiscard]] std::int64_t percentile(double q) const;
  [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& buckets() const {
    return buckets_;
  }
  /// Render as "value:count" pairs, for report dumps.
  [[nodiscard]] std::string to_string(std::size_t max_buckets = 16) const;

 private:
  std::map<std::int64_t, std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

}  // namespace p2pvod::util
