// E4 — the replication factor k (Theorem 1).
//
// Theorem 1 prescribes k >= 5ν⁻¹ log d′ / log u′ replicas per stripe. The
// scenario tabulates, per u: the theorem's k, the first-moment numeric k
// (smallest k whose union bound drops below 1%), and the empirical minimum
// k surviving the simulated adversarial suite. Each u is an independent grid
// point; Calibrator seeds pinned to 0xE4 as in the serial harness.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/calibrate.hpp"
#include "analysis/first_moment.hpp"
#include "scenario/figures.hpp"
#include "scenario/sink.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace p2pvod::scenario {

Scenario make_replication_scenario() {
  Scenario scenario;
  scenario.id = "replication";
  scenario.figure = "E4";
  scenario.title = "E4 / replication figure";
  scenario.claim = "replicas per stripe: Theorem 1 vs union bound vs measured";
  scenario.plan = [] {
    const std::uint32_t trials = util::scaled_count(4, 2);
    const std::uint32_t n = util::scaled_count(48, 24);
    const double d = 4.0;
    const double mu = 1.2;

    sweep::ParameterGrid grid;
    grid.free_axis("u", {1.25, 1.5, 2.0, 3.0});

    Plan plan;
    plan.stages.push_back(
        {"main", std::move(grid),
         {"c", "thm_valid", "thm_k", "union_k", "measured_k",
          "measured_catalog"},
         [trials, n, d, mu](const sweep::GridPoint& point,
                            std::uint64_t /*seed*/) {
           const double u = point.values[0];
           const auto bounds = analysis::Theorem1::evaluate({u, d, mu});
           analysis::FirstMomentParams fm;
           fm.n = n;
           fm.c = bounds.c;
           fm.u = u;
           fm.d = d;
           fm.mu = mu;
           const auto k_union = analysis::FirstMoment::min_k_for_bound(
               fm, 0.01, 1, static_cast<std::uint32_t>(d * n));

           analysis::TrialSpec spec;
           spec.n = n;
           spec.u = u;
           spec.d = d;
           spec.mu = mu;
           spec.c = std::min<std::uint32_t>(bounds.c, 8);  // keep runtime sane
           spec.duration = 10;
           spec.rounds = 30;
           spec.suite = analysis::WorkloadSuite::kFull;
           const auto measured = analysis::Calibrator::min_feasible_k(
               spec, 1, static_cast<std::uint32_t>(d * n / 2), 1.0, trials,
               0xE4);

           return std::vector<double>{static_cast<double>(bounds.c),
                                      bounds.valid ? 1.0 : 0.0,
                                      static_cast<double>(bounds.k),
                                      static_cast<double>(k_union),
                                      static_cast<double>(measured.k),
                                      static_cast<double>(measured.catalog)};
         }});

    const std::uint32_t n_title = n;
    plan.render = [n_title](const ScenarioRun& run, Emitter& out) {
      util::Table table("k required at n=" + std::to_string(n_title) +
                        ", d=4, mu=1.2 (c fixed per row at Theorem 1's choice)");
      table.set_header({"u", "c", "Thm1 k", "union-bound k (P<1%)",
                        "measured min k", "catalog m at measured k"});
      for (const auto& row : run.stage(0).rows()) {
        const auto thm_k = static_cast<std::uint32_t>(row.metrics[2]);
        const auto union_k = static_cast<std::uint32_t>(row.metrics[3]);
        const auto measured_k = static_cast<std::uint32_t>(row.metrics[4]);
        table.begin_row()
            .cell(row.point.values[0])
            .cell(static_cast<std::uint64_t>(row.metrics[0]))
            .cell(row.metrics[1] != 0.0 ? std::to_string(thm_k)
                                        : std::string("-"))
            .cell(union_k == 0 ? std::string("> d*n")
                               : std::to_string(union_k))
            .cell(measured_k == 0 ? std::string("-")
                                  : std::to_string(measured_k))
            .cell(static_cast<std::uint64_t>(row.metrics[5]));
      }
      out.table(table, "E4_replication");
      out.text("\nExpected shape: theory k >> union-bound k >> measured k "
               "(each layer sheds\nworst-case slack), and every column "
               "shrinks as u grows away from the threshold.\n");
    };
    return plan;
  };
  return scenario;
}

}  // namespace p2pvod::scenario
