#include "workload/distinct.hpp"

namespace p2pvod::workload {

std::vector<sim::Demand> DistinctVideosSweep::demands(
    const sim::Simulator& sim) {
  std::vector<sim::Demand> out;
  if (sim.now() < start_) return out;
  const std::uint32_t n = sim.profile().size();
  const std::uint32_t m = sim.catalog().video_count();

  if (!initialized_) {
    // Random rotation offsets keep the box -> video map unbiased across
    // trials while preserving pairwise distinctness (a shifted permutation).
    const std::vector<std::uint32_t> perm = rng_.permutation(n);
    next_video_.resize(n);
    for (model::BoxId b = 0; b < n; ++b)
      next_video_[b] = perm[b] % m;
    initialized_ = true;
    out.reserve(n);
    for (model::BoxId b = 0; b < n; ++b) {
      if (!sim.box_idle(b)) continue;
      out.push_back({b, next_video_[b]});
      next_video_[b] = (next_video_[b] + 1) % m;
    }
    return out;
  }

  if (!repeat_) return out;
  sim.idle_boxes(idle_);
  for (const model::BoxId b : idle_) {
    out.push_back({b, next_video_[b]});
    next_video_[b] = (next_video_[b] + 1) % m;
  }
  return out;
}

}  // namespace p2pvod::workload
