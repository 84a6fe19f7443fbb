#include "workload/zipf.hpp"

#include <cmath>
#include <stdexcept>

namespace p2pvod::workload {

ZipfSampler::ZipfSampler(std::uint32_t size, double alpha) {
  if (size == 0) throw std::invalid_argument("ZipfSampler: empty support");
  if (!(alpha >= 0.0))
    throw std::invalid_argument("ZipfSampler: alpha is NaN or < 0");
  cumulative_.resize(size);
  double acc = 0.0;
  for (std::uint32_t r = 0; r < size; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
    cumulative_[r] = acc;
  }
  for (double& value : cumulative_) value /= acc;
}

double ZipfSampler::probability(std::uint32_t rank) const {
  if (rank >= cumulative_.size())
    throw std::out_of_range("ZipfSampler::probability");
  return rank == 0 ? cumulative_[0]
                   : cumulative_[rank] - cumulative_[rank - 1];
}

ZipfDemand::ZipfDemand(std::uint32_t catalog_size, double alpha,
                       double demand_prob, std::uint64_t seed)
    : sampler_(catalog_size, alpha), demand_prob_(demand_prob), rng_(seed) {
  if (!(demand_prob >= 0.0 && demand_prob <= 1.0))
    throw std::invalid_argument(
        "ZipfDemand: demand probability is NaN or outside [0, 1]");
}

std::vector<sim::Demand> ZipfDemand::demands(const sim::Simulator& sim) {
  sim.idle_boxes(idle_);
  std::vector<sim::Demand> out;
  // Draw on a local copy, written back at the end: nothing in the loop can
  // alias it, so the engine state stays in registers. One Bernoulli draw per
  // idle box and one Zipf draw per demand, in box order.
  util::Rng rng = rng_;
  const double p = demand_prob_;
  for (const model::BoxId b : idle_) {
    if (!rng.next_bool(p)) continue;
    out.push_back({b, sampler_.sample(rng)});
  }
  rng_ = rng;
  return out;
}

}  // namespace p2pvod::workload
