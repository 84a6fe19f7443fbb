// The paper's figure/table scenarios, one maker per experiment.
//
// Each maker returns the Scenario that reproduces one artifact of the paper
// (or a documented extension); register_builtin_scenarios() installs all of
// them, in figure order, into a registry. Definitions live in
// src/scenario/figures/<id>.cpp; `p2pvod_bench <id>` runs one.
#pragma once

#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace p2pvod::scenario {

Scenario make_table1_scenario();          // E1  — Table 1 parameters
Scenario make_threshold_scenario();       // E2  — phase transition at u = 1
Scenario make_catalog_scaling_scenario(); // E3  — max catalog vs n
Scenario make_replication_scenario();     // E4  — replicas per stripe
Scenario make_swarm_growth_scenario();    // E5  — survival over (mu, c)
Scenario make_allocation_scenario();      // E6  — permutation vs independent
Scenario make_hetero_scenario();          // E7  — Section 4 compensation
Scenario make_tradeoff_scenario();        // E8  — catalog bound ~ (u-1)^3
Scenario make_startup_delay_scenario();   // E9  — constant start-up delay
Scenario make_obstruction_scenario();     // E10 — union bound vs measured
Scenario make_baseline_scenario();        // E11 — full replication baseline
Scenario make_churn_scenario();           // E13 — churn tolerance (extension)
Scenario make_crosszone_scenario();       // E14 — cross-zone traffic vs u
Scenario make_zonecap_scenario();         // E15 — threshold under link caps
Scenario make_scaleladder_scenario();     // E16 — million-box sparse ladder
Scenario make_placement_scenario();       // E17 — demand-aware placement

/// Register all 16 builtin scenarios in figure order. Throws (via add) if
/// any id is already present in `registry`.
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace p2pvod::scenario
