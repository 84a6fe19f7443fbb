#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace p2pvod::util {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  // Neumaier summation: the compensation catches the low-order bits whether
  // the running total or the addend is the larger magnitude.
  const double t = sum_ + x;
  comp_ += std::abs(sum_) >= std::abs(x) ? (sum_ - t) + x : (x - t) + sum_;
  sum_ = t;
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  const double x = other.sum_ + other.comp_;
  const double t = sum_ + x;
  comp_ += std::abs(sum_) >= std::abs(x) ? (sum_ - t) + x : (x - t) + sum_;
  sum_ = t;
}

double OnlineStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::stderr_mean() const noexcept {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty sample");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Proportion wilson_interval(std::size_t successes, std::size_t trials,
                           double z) {
  Proportion p;
  if (trials == 0) return p;
  const auto n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  p.estimate = phat;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = phat + z2 / (2.0 * n);
  const double margin =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  p.lower = std::max(0.0, (center - margin) / denom);
  p.upper = std::min(1.0, (center + margin) / denom);
  return p;
}

void Histogram::add(std::int64_t value, std::uint64_t weight) {
  buckets_[value] += weight;
  total_ += weight;
}

double Histogram::mean() const {
  if (total_ == 0) return 0.0;
  double acc = 0.0;
  for (const auto& [v, c] : buckets_)
    acc += static_cast<double>(v) * static_cast<double>(c);
  return acc / static_cast<double>(total_);
}

std::int64_t Histogram::min() const {
  if (buckets_.empty()) throw std::logic_error("Histogram::min: empty");
  return buckets_.begin()->first;
}

std::int64_t Histogram::max() const {
  if (buckets_.empty()) throw std::logic_error("Histogram::max: empty");
  return buckets_.rbegin()->first;
}

std::int64_t Histogram::percentile(double q) const {
  if (buckets_.empty())
    throw std::logic_error("Histogram::percentile: empty");
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (const auto& [v, c] : buckets_) {
    seen += c;
    if (seen >= target) return v;
  }
  return buckets_.rbegin()->first;
}

std::string Histogram::to_string(std::size_t max_buckets) const {
  std::ostringstream out;
  std::size_t emitted = 0;
  for (const auto& [v, c] : buckets_) {
    if (emitted++ >= max_buckets) {
      out << " ...";
      break;
    }
    if (emitted > 1) out << ' ';
    out << v << ':' << c;
  }
  return out.str();
}

}  // namespace p2pvod::util
