// GrowthLimiter: admission control enforcing the paper's swarm-growth bound.
//
// The model assumes of every demand sequence that f(t+i) <= ceil(max(f(t),1)
// µ^i) for all t and i (§1.1). Enforcing only the one-step rule is NOT enough:
// ceilings compound (f=1, µ=1.4 gives ceil(ceil(1.4)·1.4)=3 > ceil(1.96)=2),
// so the limiter tracks, per video, the tightest anchor
//     L = min over past rounds t' of ( log max(f(t'),1) − t′·log µ )
// and admits joins only while f(t) <= ceil(exp(L + t·log µ)). Demands above
// the cap are dropped (the adversary loses that move, as the model demands).
//
// Every round updates all m anchors, so the logs of the swarm sizes come
// from a table of log max(f, 1) for f = 0..n, the same values std::log
// gives. A swarm holds at most the n boxes: the simulator admits a demand
// only from an idle box, so a box is in one swarm at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/demand.hpp"

namespace p2pvod::workload {

class GrowthLimiter final : public DemandGenerator {
 public:
  /// Throws std::invalid_argument for a µ that is NaN, infinite or below 1.
  GrowthLimiter(DemandGenerator& inner, double mu);

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override {
    return "mu-limited(" + inner_.name() + ")";
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// The cap on f(now) for video v given the anchors seen so far.
  [[nodiscard]] std::uint64_t cap(model::VideoId v, model::Round now,
                                  std::uint32_t box_count) const;

 private:
  DemandGenerator& inner_;
  double mu_;
  double log_mu_;
  std::vector<double> anchor_;  ///< per-video L; +inf until first observation
  /// log max(f, 1) for f = 0..n, rebuilt when the box count n changes.
  std::vector<double> log_size_;
  std::vector<std::uint64_t> joins_;  ///< per video, this round's admissions
  std::uint64_t dropped_ = 0;
};

}  // namespace p2pvod::workload
