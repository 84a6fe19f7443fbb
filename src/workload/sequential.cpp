#include "workload/sequential.hpp"

namespace p2pvod::workload {

std::vector<sim::Demand> SequentialViewer::demands(const sim::Simulator& sim) {
  const std::uint32_t n = sim.profile().size();
  const std::uint32_t m = sim.catalog().video_count();
  if (!initialized_) {
    next_video_.resize(n);
    for (model::BoxId b = 0; b < n; ++b)
      next_video_[b] = static_cast<model::VideoId>(rng_.next_below(m));
    initialized_ = true;
  }

  std::vector<sim::Demand> out;
  sim.idle_boxes(idle_);
  for (const model::BoxId b : idle_) {
    if (!rng_.next_bool(join_prob_)) continue;
    out.push_back({b, next_video_[b]});
    next_video_[b] = (next_video_[b] + 1) % m;
  }
  return out;
}

}  // namespace p2pvod::workload
