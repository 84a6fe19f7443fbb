// Pairwise-distinct-videos sweep: the pure *sourcing* stress of the authors'
// preliminary work [3] ("requests concern pairwise distinct videos").
//
// At round `start`, every box demands a different video (box b gets video
// perm(b) mod m); when `repeat` is set, boxes immediately demand the next
// distinct video as they go idle. With n <= m the demands are pairwise
// distinct, so no swarming is possible and every chunk must come from static
// replicas — isolating the sourcing half of the sourcing/swarming trade-off.
#pragma once

#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace p2pvod::workload {

class DistinctVideosSweep final : public DemandGenerator {
 public:
  DistinctVideosSweep(std::uint64_t seed, bool repeat = false,
                      model::Round start = 0)
      : rng_(seed), repeat_(repeat), start_(start) {}

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override { return "distinct-videos"; }

 private:
  util::Rng rng_;
  bool repeat_;
  model::Round start_;
  bool initialized_ = false;
  std::vector<model::VideoId> next_video_;  ///< per-box rotation cursor
  std::vector<model::BoxId> idle_;         ///< reused across rounds
};

}  // namespace p2pvod::workload
