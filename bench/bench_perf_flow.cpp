// E12a — matching micro-benchmarks (google-benchmark).
//
// The per-round connection matching is the simulator's inner loop; this
// binary measures it on synthetic connection problems shaped like real
// rounds (requests ~ n·c, candidates ~ k + swarm backlog):
//   * Dinic on the §2.3 flow network, the from-scratch oracle,
//   * the CSR engine's pieces: row patches, row rebuilds, and CsrMatcher
//     repairing a previous round's matching,
//   * MinCostMatcher on a zone round, the dense zone-aware engine's solve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <utility>

#include "flow/bipartite.hpp"
#include "flow/csr_matcher.hpp"
#include "flow/csr_problem.hpp"
#include "flow/min_cost.hpp"
#include "util/rng.hpp"

namespace {

using namespace p2pvod;

flow::ConnectionProblem make_problem(std::uint32_t boxes,
                                     std::uint32_t requests,
                                     std::uint32_t capacity,
                                     std::uint32_t candidates_per_request,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  flow::ConnectionProblem problem(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b) problem.set_capacity(b, capacity);
  std::vector<std::uint32_t> cands;
  for (std::uint32_t r = 0; r < requests; ++r) {
    cands.clear();
    for (std::uint32_t j = 0; j < candidates_per_request; ++j) {
      cands.push_back(static_cast<std::uint32_t>(rng.next_below(boxes)));
    }
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    problem.add_request(cands);
  }
  return problem;
}

void BM_Dinic(benchmark::State& state) {
  const auto boxes = static_cast<std::uint32_t>(state.range(0));
  const auto problem = make_problem(boxes, boxes * 4, 6, 8, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.solve().served);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          problem.request_count());
}
BENCHMARK(BM_Dinic)->Arg(64)->Arg(256)->Arg(1024);

// --- CSR round engine --------------------------------------------------------

/// CSR mirror of make_problem's instance (same candidate sets).
flow::CsrProblem make_csr(const flow::ConnectionProblem& problem) {
  flow::CsrProblem csr;
  if (problem.request_count() > 0) csr.ensure_row(problem.request_count() - 1);
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    for (const std::uint32_t b : problem.candidates(r)) csr.add_source(r, b);
  }
  return csr;
}

// Surgical row patches — the per-grant / per-expiry cost the CSR engine
// pays instead of a full candidate reconstruction.
void BM_CsrPointPatch(benchmark::State& state) {
  const auto boxes = static_cast<std::uint32_t>(state.range(0));
  const auto problem = make_problem(boxes, boxes * 4, 6, 8, 42);
  auto csr = make_csr(problem);
  util::Rng rng(0xC5);
  std::uint64_t patches = 0;
  for (auto _ : state) {
    const auto row =
        static_cast<std::uint32_t>(rng.next_below(problem.request_count()));
    const auto box = static_cast<std::uint32_t>(rng.next_below(boxes));
    csr.add_source(row, box);
    benchmark::DoNotOptimize(csr.remove_sources(row, std::span(&box, 1)));
    patches += 2;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(patches));
}
BENCHMARK(BM_CsrPointPatch)->Arg(256)->Arg(4096);

// Dirty-row rebuild (assign_row from a collected sorted run) — the fallback
// cost when a row's ground truth changed wholesale.
void BM_CsrRowRebuild(benchmark::State& state) {
  const auto boxes = static_cast<std::uint32_t>(state.range(0));
  const auto problem = make_problem(boxes, boxes * 4, 6, 8, 42);
  auto csr = make_csr(problem);
  std::vector<std::uint32_t> row_boxes;
  std::vector<std::uint32_t> counts;
  std::uint32_t next = 0;
  for (auto _ : state) {
    const std::uint32_t r = next++ % problem.request_count();
    row_boxes.assign(problem.candidates(r).begin(),
                     problem.candidates(r).end());
    counts.assign(row_boxes.size(), 1);
    csr.assign_row(r, row_boxes, counts);
    benchmark::DoNotOptimize(csr.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CsrRowRebuild)->Arg(256)->Arg(4096);

// Matching repair with 10% of rows dirtied — CsrMatcher re-augments only the
// dirty rows instead of re-solving the round (BM_Dinic above).
void BM_CsrMatcherRepair(benchmark::State& state) {
  const auto boxes = static_cast<std::uint32_t>(state.range(0));
  const auto problem = make_problem(boxes, boxes * 4, 6, 8, 42);
  const auto csr = make_csr(problem);
  const std::vector<std::uint32_t>& cap = problem.capacities();
  flow::CsrMatcher matcher(boxes);
  matcher.ensure_rows(problem.request_count());
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    (void)matcher.augment(csr, cap, r);
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::uint32_t> dirty;
    for (std::uint32_t r = 0; r < problem.request_count(); r += 10) {
      if (matcher.assignment(r) >= 0) {
        matcher.unassign(r);
        dirty.push_back(r);
      }
    }
    state.ResumeTiming();
    std::uint32_t repaired = 0;
    for (const std::uint32_t r : dirty) {
      if (matcher.augment(csr, cap, r)) ++repaired;
    }
    benchmark::DoNotOptimize(repaired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          problem.request_count() / 10);
}
BENCHMARK(BM_CsrMatcherRepair)->Arg(64)->Arg(256)->Arg(1024);

// Witness extraction on an infeasible instance (used on every stall).
void BM_InfeasibilityWitness(benchmark::State& state) {
  const auto boxes = static_cast<std::uint32_t>(state.range(0));
  // Capacity 1 with 4x oversubscription: heavily infeasible.
  const auto problem = make_problem(boxes, boxes * 4, 1, 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.infeasibility_witness());
  }
}
BENCHMARK(BM_InfeasibilityWitness)->Arg(64)->Arg(256);

// --- Zone rounds -------------------------------------------------------------

/// A zone-regime round: `boxes` boxes with 6 slots each, 45 requests per 16
/// boxes with 7 distinct candidates each, and 12 round-robin zones (box b in
/// zone b % 12, request r in zone r % 12), cost 0 inside a zone and 1
/// across. At 64 boxes it has the shape of a zone_caps round: 180 requests.
std::pair<flow::ConnectionProblem, flow::EdgeCosts> make_zone_round(
    std::uint32_t boxes) {
  constexpr std::uint32_t kZones = 12;
  constexpr std::size_t kCandidates = 7;
  util::Rng rng(0x20E5);
  flow::ConnectionProblem problem(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b) problem.set_capacity(b, 6);
  flow::EdgeCosts costs;
  std::vector<std::uint32_t> cands;
  for (std::uint32_t r = 0; r < boxes * 45 / 16; ++r) {
    cands.clear();
    while (cands.size() < kCandidates) {
      const auto b = static_cast<std::uint32_t>(rng.next_below(boxes));
      if (std::find(cands.begin(), cands.end(), b) == cands.end())
        cands.push_back(b);
    }
    auto& row = costs.emplace_back();
    for (const std::uint32_t b : cands)
      row.push_back(b % kZones == r % kZones ? 0 : 1);
    problem.add_request(cands);
  }
  return {std::move(problem), std::move(costs)};
}

// One exact min-cost solve of a zone round: a shortest augmenting path per
// served request. Items are requests.
void BM_MinCostZoneRound(benchmark::State& state) {
  const auto boxes = static_cast<std::uint32_t>(state.range(0));
  const auto [problem, costs] = make_zone_round(boxes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flow::MinCostMatcher::solve(problem, costs).match.served);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          problem.request_count());
}
BENCHMARK(BM_MinCostZoneRound)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
