#include "workload/flash_crowd.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2pvod::workload {

FlashCrowd::FlashCrowd(model::VideoId video, double mu,
                       model::Round start_round, std::uint32_t max_joiners)
    : video_(video), mu_(mu), start_(start_round), max_joiners_(max_joiners) {
  // A NaN µ would admit the seed viewer and then no one.
  if (std::isnan(mu)) throw std::invalid_argument("FlashCrowd: mu is NaN");
}

std::vector<sim::Demand> FlashCrowd::demands(const sim::Simulator& sim) {
  std::vector<sim::Demand> out;
  if (sim.now() < start_) return out;
  if (max_joiners_ != 0 && joined_ >= max_joiners_) return out;

  // Maximal growth: the swarm may reach ceil(max(f,1)·µ) next round. A huge
  // µ asks for more joiners than 32 bits hold, so the count is clamped to
  // the box count first; the loop below stops at the last idle box anyway.
  const std::uint32_t f = sim.swarms().size(video_);
  const double wanted = std::ceil(std::max<double>(f, 1.0) * mu_) - f;
  std::uint32_t joins =
      wanted > 0.0 ? static_cast<std::uint32_t>(std::min<double>(
                         wanted, sim.profile().size()))
                   : 0u;
  if (sim.now() == start_ && f == 0 && joins == 0) joins = 1;  // seed viewer
  if (max_joiners_ != 0) joins = std::min(joins, max_joiners_ - joined_);

  sim.idle_boxes(idle_);
  for (const model::BoxId b : idle_) {
    if (joins == 0) break;
    out.push_back({b, video_});
    --joins;
    ++joined_;
  }
  return out;
}

}  // namespace p2pvod::workload
