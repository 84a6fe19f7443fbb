#include "workload/limiter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace p2pvod::workload {

GrowthLimiter::GrowthLimiter(DemandGenerator& inner, double mu)
    : inner_(inner), mu_(mu), log_mu_(std::log(mu)) {
  // A NaN µ would keep every anchor at +inf, capping nothing, and µ = +inf
  // makes cap() cast a NaN (-inf + inf) to an integer.
  if (!(mu >= 1.0 && std::isfinite(mu)))
    throw std::invalid_argument("GrowthLimiter: mu is NaN, infinite or < 1");
}

std::uint64_t GrowthLimiter::cap(model::VideoId v, model::Round now,
                                 std::uint32_t box_count) const {
  if (v >= anchor_.size() || anchor_[v] == std::numeric_limits<double>::infinity())
    return box_count;  // no anchor yet: first joins are unconstrained (f<=1 rule seeds below)
  const double log_cap = anchor_[v] + static_cast<double>(now) * log_mu_;
  const double log_n = std::log(static_cast<double>(box_count) + 1.0);
  if (log_cap >= log_n) return box_count;  // cap beyond population size
  return static_cast<std::uint64_t>(std::ceil(std::exp(log_cap) - 1e-9));
}

std::vector<sim::Demand> GrowthLimiter::demands(const sim::Simulator& sim) {
  const std::uint32_t m = sim.catalog().video_count();
  const std::uint32_t n = sim.profile().size();
  if (anchor_.size() < m)
    anchor_.resize(m, std::numeric_limits<double>::infinity());
  if (log_size_.size() != std::size_t{n} + 1) {
    log_size_.resize(std::size_t{n} + 1);
    for (std::size_t f = 0; f <= n; ++f)
      log_size_[f] = std::log(std::max(1.0, static_cast<double>(f)));
  }

  // Update anchors with the current sizes f(t): every round is a potential
  // new anchor t' for the min above.
  const model::Round now = sim.now();
  for (model::VideoId v = 0; v < m; ++v) {
    const double log_f = log_size_[sim.swarms().size(v)];
    anchor_[v] =
        std::min(anchor_[v], log_f - static_cast<double>(now) * log_mu_);
  }

  std::vector<sim::Demand> raw = inner_.demands(sim);
  std::vector<sim::Demand> admitted;
  admitted.reserve(raw.size());
  // Joins this round count against the cap at t+1 (they enter the swarm now
  // and are visible as f at the next anchor check): admit while
  // f_current + joins(v) <= cap(v, now+1).
  joins_.assign(m, 0);
  for (const sim::Demand& d : raw) {
    const std::uint64_t limit = cap(d.video, now + 1, n);
    const std::uint64_t current = sim.swarms().size(d.video) + joins_[d.video];
    if (current < limit) {
      admitted.push_back(d);
      ++joins_[d.video];
    } else {
      ++dropped_;
    }
  }
  return admitted;
}

}  // namespace p2pvod::workload
