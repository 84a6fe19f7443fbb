// Sequential "binge" viewer: each box watches videos back to back.
//
// Exercises the §1.1 playback-cache corner: "If a box plays videos one after
// another, the cache then contains the end of the previous video and the
// beginning of the current one." A box that finishes video v immediately
// demands v+1 (mod m), staggered by a per-box random start so swarm positions
// spread out.
#pragma once

#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace p2pvod::workload {

class SequentialViewer final : public DemandGenerator {
 public:
  SequentialViewer(std::uint64_t seed, double join_prob = 1.0)
      : rng_(seed), join_prob_(join_prob) {}

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override { return "sequential"; }

 private:
  util::Rng rng_;
  double join_prob_;  ///< chance an idle box (re)joins each round
  bool initialized_ = false;
  std::vector<model::VideoId> next_video_;
  std::vector<model::BoxId> idle_;  ///< reused across rounds
};

}  // namespace p2pvod::workload
