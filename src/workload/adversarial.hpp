// The §1.3 lower-bound adversary.
//
// "Consider a sequence of requests where each box always plays a video it
// does not possess. The aggregated download rate then becomes n whereas the
// aggregated upload rate is un < n which is not sufficient."
//
// AvoiderAdversary implements exactly that: every idle box demands a video of
// which it stores *no stripe*. When every video has local data (m <= d/ℓ, the
// constant-catalog regime), it falls back per `fallback` — either stay silent
// (the adversary has no move) or demand the video with the least local data.
// Driving a u<1 system with m > d_max/ℓ through this adversary must stall it;
// experiment E2 sweeps u across the threshold with it.
#pragma once

#include <cstdint>
#include <vector>

#include "model/ids.hpp"
#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace p2pvod::workload {

class AvoiderAdversary final : public DemandGenerator {
 public:
  enum class Fallback {
    kStaySilent,     ///< no demand when every video has local data
    kLeastLocalData  ///< demand the video with fewest locally stored stripes
  };

  AvoiderAdversary(std::uint64_t seed, Fallback fallback = Fallback::kStaySilent,
                   std::uint32_t max_demands_per_round = 0)
      : rng_(seed), fallback_(fallback), max_per_round_(max_demands_per_round) {}

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override { return "avoider"; }

 private:
  util::Rng rng_;
  Fallback fallback_;
  std::uint32_t max_per_round_;  ///< 0 = unlimited
  std::vector<model::BoxId> idle_;  ///< reused across rounds
  // Scratch reused across boxes: the videos a box holds data of (ascending)
  // and how many of their stripes it stores.
  std::vector<model::VideoId> held_;
  std::vector<std::uint32_t> held_stripes_;
};

}  // namespace p2pvod::workload
