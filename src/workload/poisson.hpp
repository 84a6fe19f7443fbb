// Poisson arrivals: `rate` demands per round on average, assigned to
// uniformly random idle boxes and uniformly random videos. The memoryless
// background load for long-running soak simulations.
#pragma once

#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace p2pvod::workload {

class PoissonArrivals final : public DemandGenerator {
 public:
  PoissonArrivals(double rate, std::uint64_t seed)
      : rate_(rate), rng_(seed) {}

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override { return "poisson"; }

 private:
  /// Knuth sampling; fine for the modest per-round rates we simulate.
  [[nodiscard]] std::uint32_t sample_poisson();

  double rate_;
  util::Rng rng_;
  std::vector<model::BoxId> idle_;  ///< reused across rounds
};

}  // namespace p2pvod::workload
