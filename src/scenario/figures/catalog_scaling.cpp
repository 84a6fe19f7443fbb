// E3 — catalog scalability (abstract, §1.3 vs Theorem 1).
//
// For u > 1 the maximum feasible catalog must grow linearly with n (Theorem
// 1: m = Ω(n)); for u < 1 it is pinned at the constant d_max·c = d_max/ℓ
// (§1.3). Each of the 8 binary searches is an independent grid point with
// seeds pinned to 0xE3, matching the original serial harness.
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/calibrate.hpp"
#include "scenario/figures.hpp"
#include "scenario/sink.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace p2pvod::scenario {

Scenario make_catalog_scaling_scenario() {
  Scenario scenario;
  scenario.id = "catalog_scaling";
  scenario.figure = "E3";
  scenario.title = "E3 / catalog scaling figure";
  scenario.claim =
      "max feasible catalog vs n: linear above u=1, constant below";
  scenario.plan = [] {
    const std::uint32_t trials = util::scaled_count(4, 2);
    analysis::TrialSpec base;
    base.d = 4.0;
    base.mu = 1.3;
    base.c = 4;
    base.duration = 10;
    base.rounds = 30;
    base.suite = analysis::WorkloadSuite::kFull;

    const std::vector<double> n_values = {
        16, 32, 64, static_cast<double>(util::scaled_count(128, 96))};
    sweep::ParameterGrid grid(base);
    grid.axis("n", n_values).axis("u", {1.5, 0.75});

    Plan plan;
    plan.stages.push_back(
        {"main", std::move(grid),
         {"max_m", "k"},
         [trials](const sweep::GridPoint& point, std::uint64_t /*seed*/) {
           const auto found = analysis::Calibrator::max_catalog(
               point.spec, 1.0, trials, 0xE3);
           return std::vector<double>{static_cast<double>(found.m),
                                      static_cast<double>(found.k)};
         }});

    const double d = base.d;
    const std::uint32_t c = base.c;
    plan.render = [trials, n_values, d, c](const ScenarioRun& run,
                                           Emitter& out) {
      util::Table table("empirical max catalog (binary search, full suite, " +
                        std::to_string(trials) + " seeds/point)");
      table.set_header({"n", "u=1.5: max m", "m/n", "k used", "u=0.75: max m",
                        "Sec1.3 limit d*c"});
      const auto limit = static_cast<std::uint32_t>(d * c);
      for (std::size_t ni = 0; ni < n_values.size(); ++ni) {
        // Row-major grid: point 2*ni is u=1.5, point 2*ni+1 is u=0.75.
        const auto& scalable = run.stage(0).row(2 * ni);
        const auto& starved = run.stage(0).row(2 * ni + 1);
        const auto n = static_cast<std::uint32_t>(n_values[ni]);
        table.begin_row()
            .cell(static_cast<std::uint64_t>(n))
            .cell(static_cast<std::uint64_t>(scalable.metrics[0]))
            .cell(n == 0 ? 0.0 : scalable.metrics[0] / n, 3)
            .cell(static_cast<std::uint64_t>(scalable.metrics[1]))
            .cell(static_cast<std::uint64_t>(starved.metrics[0]))
            .cell(static_cast<std::uint64_t>(limit));
      }
      out.table(table, "E3_catalog_scaling");
      out.text("\nExpected shape: the u=1.5 column grows ~linearly in n "
               "(m/n roughly constant);\nthe u=0.75 column stays below the "
               "Section 1.3 constant d*c regardless of n.\n");
    };
    return plan;
  };
  return scenario;
}

}  // namespace p2pvod::scenario
