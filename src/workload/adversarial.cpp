#include "workload/adversarial.hpp"

#include <algorithm>

namespace p2pvod::workload {

std::vector<sim::Demand> AvoiderAdversary::demands(const sim::Simulator& sim) {
  std::vector<sim::Demand> out;
  const model::Catalog& catalog = sim.catalog();
  const alloc::Allocation& allocation = sim.allocation();
  const std::uint32_t m = catalog.video_count();
  const std::uint32_t c = catalog.stripes_per_video();

  std::uint32_t emitted = 0;
  sim.idle_boxes(idle_);
  for (const model::BoxId b : idle_) {
    if (max_per_round_ != 0 && emitted >= max_per_round_) break;

    // The videos b has data of: stored(b) is sorted and video v owns the
    // stripes [v·c, (v+1)·c), so they come out ascending, one run each.
    held_.clear();
    held_stripes_.clear();
    for (const model::StripeId s : allocation.stored(b)) {
      if (held_.empty() || held_.back() != s / c) {
        held_.push_back(s / c);
        held_stripes_.push_back(0);
      }
      ++held_stripes_.back();
    }
    // Pick one of the videos b has no data of uniformly to spread swarms
    // (keeps the per-video growth bound satisfied for free when n<<m): the
    // pick-th missing video is the pick, stepped past each held video at or
    // below it.
    if (held_.size() < m) {
      auto video =
          static_cast<model::VideoId>(rng_.next_below(m - held_.size()));
      for (const model::VideoId v : held_) {
        if (v > video) break;
        ++video;
      }
      out.push_back({b, video});
      ++emitted;
      continue;
    }
    if (fallback_ == Fallback::kStaySilent) continue;

    // Fallback: least locally-stored stripes (weakest local coverage), the
    // lowest such video on ties.
    const auto fewest =
        std::min_element(held_stripes_.begin(), held_stripes_.end());
    out.push_back({b, held_[static_cast<std::size_t>(
                          fewest - held_stripes_.begin())]});
    ++emitted;
  }
  return out;
}

}  // namespace p2pvod::workload
