// DemandGenerator: produces the demand sequence driving a simulation.
//
// The paper's results quantify over *adversarial* demand sequences subject to
// two rules the generators here respect (or are wrapped to respect):
//   * at most one video playing per box (busy boxes don't demand), and
//   * swarm growth bounded by µ (see GrowthLimiter).
// Generators see the simulator read-only and may inspect swarm sizes, idle
// boxes and the allocation — the §1.3 adversary explicitly exploits the
// allocation ("each box always plays a video it does not possess").
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace p2pvod::workload {

class DemandGenerator {
 public:
  virtual ~DemandGenerator() = default;

  /// Demands arriving this round (sim.now()). Called once per round.
  [[nodiscard]] virtual std::vector<sim::Demand> demands(
      const sim::Simulator& sim) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace p2pvod::workload
