// E16 (extension, not in the paper) — the million-box scale ladder.
//
// The paper argues the allocation works at "set-top box population" scale;
// a round loop that rebuilt every candidate row each round could not show
// it (per-round reconstruction is O(n) even when nothing changed). E16
// climbs n from 10^3 to 10^6 on the CSR round engine every run without a
// topology uses: persistent candidate rows patched by grant/expiry/churn
// deltas and an incrementally repaired matching. Every rung runs the same
// Zipf audience plus a deterministic round-robin churn drizzle; the table
// reports only deterministic counters (served, stalls, matcher edges, rows
// built, row patches, kept connections) so the BENCH document is
// byte-stable across thread counts —
// throughput lives in the per-stage wall_seconds field of the JSON, which
// the baseline differ ignores. Small rungs run with verify_incremental: the
// CSR assignment is structurally validated against a dense reference
// solve every round, so the ladder self-checks before it gets expensive.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/permutation.hpp"
#include "scenario/figures.hpp"
#include "scenario/sink.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/zipf.hpp"

namespace p2pvod::scenario {

namespace {

struct LadderOutcome {
  double served = 0.0;
  double stalled = 0.0;
  double matcher_edges = 0.0;
  double rows_built = 0.0;
  double row_patches = 0.0;
  double kept = 0.0;
};

/// Rung population bases; each rung is scaled by P2PVOD_SCALE (floor 64) so
/// the CI smoke at scale 0.25 tops out at 250k boxes while the full run
/// reaches a million.
const std::vector<double> kLadderBases = {1000, 4000, 16000, 64000, 250000,
                                          1000000};

constexpr std::uint32_t kRounds = 20;
constexpr model::Round kOutage = 4;

std::uint32_t rung_population(double base) {
  return util::scaled_count(static_cast<std::uint32_t>(base), 64);
}

LadderOutcome run_rung(std::uint32_t n) {
  const std::uint32_t c = 4;
  const std::uint32_t k = 6;
  const double d = 4.0;  // storage per box, videos
  const auto m = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(d * n / k));
  const model::Catalog catalog(m, c, 12);
  const auto profile = model::CapacityProfile::homogeneous(n, 2.0, d);

  util::Rng rng(0xE1600);
  const auto allocation =
      alloc::PermutationAllocator().allocate(catalog, profile, k, rng);
  sim::PreloadingStrategy strategy;
  sim::SimulatorOptions options;
  options.strict = false;
  // Self-check rungs: cheap enough below a few thousand boxes to validate
  // the sparse assignment against a dense reference solve every round.
  options.verify_incremental = n <= 4000;
  sim::Simulator simulator(catalog, profile, allocation, strategy, options);
  workload::ZipfDemand audience(m, 0.6, 0.01, 0xE16AA);

  // Deterministic churn drizzle: a round-robin cursor fails `per_round`
  // boxes each round for kOutage rounds — enough to exercise the offline /
  // online delta paths at every rung without an RNG in the hot loop.
  const std::uint32_t per_round = std::max<std::uint32_t>(1, n / 100000);
  std::vector<std::pair<model::Round, model::BoxId>> down;  // (up round, box)
  std::uint32_t cursor = 0;
  for (model::Round round = 0; round < kRounds; ++round) {
    while (!down.empty() && down.front().first <= round) {
      simulator.set_box_online(down.front().second, true);
      down.erase(down.begin());
    }
    for (std::uint32_t i = 0; i < per_round; ++i) {
      const model::BoxId victim = cursor;
      cursor = (cursor + 1) % n;
      if (!simulator.box_online(victim)) continue;
      simulator.set_box_online(victim, false);
      down.emplace_back(round + kOutage, victim);
    }
    simulator.step(audience.demands(simulator));
  }

  const auto& report = simulator.report();
  LadderOutcome out;
  out.served = static_cast<double>(report.chunks_served);
  out.stalled = static_cast<double>(report.chunks_stalled);
  out.matcher_edges = static_cast<double>(report.matcher_edges);
  out.rows_built = static_cast<double>(report.rows_built);
  out.row_patches = static_cast<double>(report.row_patches);
  out.kept = static_cast<double>(report.kept_connections);
  return out;
}

}  // namespace

Scenario make_scaleladder_scenario() {
  Scenario scenario;
  scenario.id = "scaleladder";
  scenario.figure = "E16";
  scenario.title = "E16 / scale ladder (extension)";
  scenario.claim =
      "sparse CSR round loop sustains the model at 10^6 boxes";
  scenario.plan = [] {
    sweep::ParameterGrid grid;
    grid.free_axis("n_base", kLadderBases);

    Plan plan;
    plan.stages.push_back(
        {"main", std::move(grid),
         {"served", "stalled", "matcher_edges", "rows_built", "row_patches",
          "kept"},
         [](const sweep::GridPoint& point, std::uint64_t /*seed*/) {
           const auto outcome = run_rung(rung_population(point.values[0]));
           return std::vector<double>{outcome.served, outcome.stalled,
                                      outcome.matcher_edges,
                                      outcome.rows_built, outcome.row_patches,
                                      outcome.kept};
         }});

    plan.render = [](const ScenarioRun& run, Emitter& out) {
      util::Table table(
          "u=2, c=4, k=6, 20-round Zipf audience + round-robin churn "
          "(sparse CSR round path)");
      table.set_header({"n", "served", "stalled", "edges", "rows built",
                        "row patches", "kept"});
      const auto count = [](double value) {
        return static_cast<std::uint64_t>(value);
      };
      for (std::size_t i = 0; i < kLadderBases.size(); ++i) {
        const auto& row = run.stage(0).row(i);
        table.begin_row()
            .cell(rung_population(kLadderBases[i]))
            .cell(count(row.metrics[0]))
            .cell(count(row.metrics[1]))
            .cell(count(row.metrics[2]))
            .cell(count(row.metrics[3]))
            .cell(count(row.metrics[4]))
            .cell(count(row.metrics[5]));
      }
      out.table(table, "E16_scaleladder");
      out.text("\nExpected shape: served scales ~linearly with n while rows "
               "built stays a small\nfraction of served — the sparse path "
               "collects only dirtied rows, where the dense\nloop would pay "
               "one row per live request per round. Row patches grow with "
               "the\ncache-grant rate; stalls stay near zero at u=2 "
               "(capacity is ample; the churn\ndrizzle only dents it). "
               "Throughput (rounds/sec) is in the per-stage wall_seconds\n"
               "field of BENCH_scaleladder.json, which the baseline diff "
               "ignores.\n");
    };
    return plan;
  };
  return scenario;
}

}  // namespace p2pvod::scenario
