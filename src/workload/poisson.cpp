#include "workload/poisson.hpp"

#include <cmath>

namespace p2pvod::workload {

std::uint32_t PoissonArrivals::sample_poisson() {
  const double limit = std::exp(-rate_);
  std::uint32_t count = 0;
  double product = rng_.next_double();
  while (product > limit) {
    ++count;
    product *= rng_.next_double();
  }
  return count;
}

std::vector<sim::Demand> PoissonArrivals::demands(const sim::Simulator& sim) {
  std::vector<sim::Demand> out;
  std::uint32_t arrivals = sample_poisson();
  if (arrivals == 0) return out;
  sim.idle_boxes(idle_);
  const std::uint32_t m = sim.catalog().video_count();
  while (arrivals-- > 0 && !idle_.empty()) {
    const auto pick = static_cast<std::size_t>(rng_.next_below(idle_.size()));
    const model::BoxId box = idle_[pick];
    idle_[pick] = idle_.back();
    idle_.pop_back();
    out.push_back({box, static_cast<model::VideoId>(rng_.next_below(m))});
  }
  return out;
}

}  // namespace p2pvod::workload
