// Flash crowd at maximal swarm growth.
//
// The hardest swarming scenario of the model: a single video attracts joiners
// as fast as the growth bound µ allows — f(t+1) = ceil(max(f(t),1)·µ) — until
// `max_joiners` boxes (or all boxes) have joined. This is the workload behind
// experiment E5 (feasibility frontier over (c, µ), Lemma 2's regime) and the
// strategy ablation (preloading vs naive).
#pragma once

#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace p2pvod::workload {

class FlashCrowd final : public DemandGenerator {
 public:
  /// Joiners pick boxes in id order (deterministic) — box identity is
  /// irrelevant to the matching, only the join schedule matters. µ = +inf
  /// joins every idle box at once; a NaN µ throws std::invalid_argument.
  FlashCrowd(model::VideoId video, double mu, model::Round start_round = 0,
             std::uint32_t max_joiners = 0);

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override { return "flash-crowd"; }

  [[nodiscard]] std::uint32_t total_joined() const noexcept { return joined_; }

 private:
  model::VideoId video_;
  double mu_;
  model::Round start_;
  std::uint32_t max_joiners_;  ///< 0 = every box eventually joins
  std::uint32_t joined_ = 0;
  std::vector<model::BoxId> idle_;  ///< reused across rounds
};

}  // namespace p2pvod::workload
