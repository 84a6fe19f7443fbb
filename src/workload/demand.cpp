#include "workload/demand.hpp"

namespace p2pvod::workload {

std::vector<model::BoxId> idle_boxes(const sim::Simulator& sim) {
  std::vector<model::BoxId> out;
  sim.idle_boxes(out);
  return out;
}

}  // namespace p2pvod::workload
