// Zipf-popularity demand: the classical VoD popularity model.
//
// Each idle box demands, with probability `demand_prob` per round, a video
// drawn from a Zipf(alpha) distribution over the catalog (rank 1 most
// popular). Not adversarial — this is the "realistic load" workload used by
// the examples and the E2 success-probability experiment's background traffic.
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace p2pvod::workload {

/// Discrete Zipf sampler over {0, ..., size-1} with exponent alpha >= 0
/// (alpha = 0 is uniform). Inverse-CDF over precomputed cumulative weights.
/// Throws std::invalid_argument for an empty support or an alpha that is
/// NaN or negative.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t size, double alpha);

  /// One draw: the first rank whose cumulative weight reaches a uniform
  /// [0, 1) variate. Inline, so a caller's loop keeps `rng` in registers.
  [[nodiscard]] std::uint32_t sample(util::Rng& rng) const {
    const double x = rng.next_double();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), x) -
        cumulative_.begin());
    return static_cast<std::uint32_t>(std::min(rank, cumulative_.size() - 1));
  }
  [[nodiscard]] double probability(std::uint32_t rank) const;
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(cumulative_.size());
  }

 private:
  std::vector<double> cumulative_;
};

class ZipfDemand final : public DemandGenerator {
 public:
  /// Throws std::invalid_argument for what ZipfSampler rejects and for a
  /// `demand_prob` that is NaN or outside [0, 1].
  ZipfDemand(std::uint32_t catalog_size, double alpha, double demand_prob,
             std::uint64_t seed);

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override { return "zipf"; }

 private:
  ZipfSampler sampler_;
  double demand_prob_;
  util::Rng rng_;
  std::vector<model::BoxId> idle_;  ///< reused across rounds
};

}  // namespace p2pvod::workload
