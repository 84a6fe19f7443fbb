// E1 — Table 1 of the paper: the model's key parameters, plus the derived
// protocol values (ν, u′, d′, k, m) that Theorem 1/2 attach to reference
// configurations. The closed-form evaluations run as (cheap) grid points so
// the JSON sink records the derived values per configuration.
#include <cstdint>

#include "analysis/bounds.hpp"
#include "scenario/figures.hpp"
#include "scenario/sink.hpp"
#include "util/table.hpp"

namespace p2pvod::scenario {

namespace {

struct Config {
  const char* name;
  double u, d, mu;
};

constexpr Config kTheorem1Configs[] = {{"DSL-tight", 1.25, 8.0, 1.1},
                                       {"DSL-comfortable", 1.5, 4.0, 1.2},
                                       {"fiber", 3.0, 4.0, 1.5}};
constexpr Config kTheorem2Configs[] = {{"mixed-ADSL", 1.5, 4.0, 1.05},
                                       {"mixed-fast", 2.0, 4.0, 1.1}};

}  // namespace

Scenario make_table1_scenario() {
  Scenario scenario;
  scenario.id = "table1";
  scenario.figure = "E1";
  scenario.title = "E1 / Table 1";
  scenario.claim = "key parameters of the model";
  scenario.plan = [] {
    Plan plan;

    sweep::ParameterGrid theorem1_grid;
    theorem1_grid.free_axis("config", {0, 1, 2});
    plan.stages.push_back(
        {"theorem1", std::move(theorem1_grid),
         {"c", "nu", "u_prime", "d_prime", "k_bound", "k", "m_1e5", "m_1e6"},
         [](const sweep::GridPoint& point, std::uint64_t /*seed*/) {
           const Config& config =
               kTheorem1Configs[static_cast<std::size_t>(point.values[0])];
           const auto b = analysis::Theorem1::evaluate(
               {config.u, config.d, config.mu});
           return std::vector<double>{
               static_cast<double>(b.c), b.nu, b.u_prime, b.d_prime, b.k_real,
               static_cast<double>(b.k), static_cast<double>(b.catalog(100000)),
               static_cast<double>(b.catalog(1000000))};
         }});

    sweep::ParameterGrid theorem2_grid;
    theorem2_grid.free_axis("config", {0, 1});
    plan.stages.push_back(
        {"theorem2", std::move(theorem2_grid),
         {"c", "nu", "u_prime", "k_bound", "k", "m_1e6"},
         [](const sweep::GridPoint& point, std::uint64_t /*seed*/) {
           const Config& config =
               kTheorem2Configs[static_cast<std::size_t>(point.values[0])];
           const auto b = analysis::Theorem2::evaluate(
               {config.u, config.d, config.mu});
           return std::vector<double>{
               static_cast<double>(b.c), b.nu, b.u_prime, b.k_real,
               static_cast<double>(b.k),
               static_cast<double>(b.catalog(1000000))};
         }});

    plan.render = [](const ScenarioRun& run, Emitter& out) {
      util::Table glossary("Table 1 — key parameters");
      glossary.set_header({"symbol", "meaning"});
      glossary.add_row({"n", "number of boxes in the system"});
      glossary.add_row(
          {"m", "number of distinct videos stored (catalog size)"});
      glossary.add_row(
          {"d_b / d", "storage capacity of box b / average (videos)"});
      glossary.add_row({"k", "duplicate copies per stripe (k ~ d*n/m)"});
      glossary.add_row(
          {"u_b / u", "upload capacity of box b / average (streams)"});
      glossary.add_row(
          {"c", "stripes per video (download all c in parallel)"});
      glossary.add_row(
          {"mu", "swarm growth bound: f(t+1) <= ceil(max(f(t),1)*mu)"});
      glossary.add_row(
          {"l", "minimal chunk size: l = 1/c when storing stripes"});
      out.table(glossary, "E1_glossary");
      out.text("\n");

      util::Table derived("derived protocol values (Theorem 1, homogeneous)");
      derived.set_header({"config", "u", "d", "mu", "c", "nu", "u'", "d'",
                          "k bound", "k", "m @ n=10^5", "m @ n=10^6"});
      for (const auto& row : run.stage(0).rows()) {
        const Config& config =
            kTheorem1Configs[static_cast<std::size_t>(row.point.values[0])];
        derived.begin_row()
            .cell(config.name)
            .cell(config.u)
            .cell(config.d)
            .cell(config.mu)
            .cell(static_cast<std::uint64_t>(row.metrics[0]))
            .cell(row.metrics[1], 3)
            .cell(row.metrics[2])
            .cell(row.metrics[3])
            .cell(row.metrics[4], 5)
            .cell(static_cast<std::uint64_t>(row.metrics[5]))
            .cell(static_cast<std::uint64_t>(row.metrics[6]))
            .cell(static_cast<std::uint64_t>(row.metrics[7]));
      }
      out.table(derived, "E1_theorem1");
      out.text("\n");

      util::Table hetero("derived protocol values (Theorem 2, heterogeneous)");
      hetero.set_header({"config", "u*", "d", "mu", "c", "nu", "u'", "k bound",
                         "k", "m @ n=10^6"});
      for (const auto& row : run.stage(1).rows()) {
        const Config& config =
            kTheorem2Configs[static_cast<std::size_t>(row.point.values[0])];
        hetero.begin_row()
            .cell(config.name)
            .cell(config.u)
            .cell(config.d)
            .cell(config.mu)
            .cell(static_cast<std::uint64_t>(row.metrics[0]))
            .cell(row.metrics[1], 3)
            .cell(row.metrics[2])
            .cell(row.metrics[3], 5)
            .cell(static_cast<std::uint64_t>(row.metrics[4]))
            .cell(static_cast<std::uint64_t>(row.metrics[5]));
      }
      out.table(hetero, "E1_theorem2");
    };
    return plan;
  };
  return scenario;
}

}  // namespace p2pvod::scenario
