// Unit tests for src/flow: Dinic max-flow, the connection-problem reduction
// (cross-checked against CsrMatcher, the round loop's cost-blind matcher),
// Hall checking, CsrMatcher's cross-round repair, and the min-cost matching
// engine (successive shortest paths with potentials), checked path for path
// against its textbook FlowNetwork form.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "flow/bipartite.hpp"
#include "flow/csr_matcher.hpp"
#include "flow/csr_problem.hpp"
#include "flow/dinic.hpp"
#include "flow/graph.hpp"
#include "flow/hall.hpp"
#include "flow/min_cost.hpp"
#include "flow/verify.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace f = p2pvod::flow;

// ----------------------------------------------------------------- network

TEST(FlowNetwork, EdgePairing) {
  f::FlowNetwork net(3);
  const auto e = net.add_edge(0, 1, 5);
  EXPECT_EQ(net.residual(e), 5);
  EXPECT_EQ(net.residual(e ^ 1u), 0);
  net.push(e, 3);
  EXPECT_EQ(net.residual(e), 2);
  EXPECT_EQ(net.flow_on(e), 3);
  net.reset_flow();
  EXPECT_EQ(net.flow_on(e), 0);
}

TEST(FlowNetwork, RejectsBadEdges) {
  f::FlowNetwork net(2);
  EXPECT_THROW(net.add_edge(0, 5, 1), std::out_of_range);
  EXPECT_THROW(net.add_edge(0, 1, -1), std::invalid_argument);
}

TEST(FlowNetwork, AddNodesReturnsFirstId) {
  f::FlowNetwork net(2);
  EXPECT_EQ(net.add_nodes(3), 2u);
  EXPECT_EQ(net.node_count(), 5u);
}

// ----------------------------------------------------------------- dinic

TEST(Dinic, SingleEdge) {
  f::FlowNetwork net(2);
  net.add_edge(0, 1, 7);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 1), 7);
}

TEST(Dinic, SeriesBottleneck) {
  f::FlowNetwork net(3);
  net.add_edge(0, 1, 10);
  net.add_edge(1, 2, 4);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 2), 4);
}

TEST(Dinic, ParallelPathsSum) {
  f::FlowNetwork net(4);
  net.add_edge(0, 1, 3);
  net.add_edge(1, 3, 3);
  net.add_edge(0, 2, 5);
  net.add_edge(2, 3, 5);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 3), 8);
}

TEST(Dinic, ClassicTextbookInstance) {
  // CLRS-style 6-node instance with known max flow 23.
  f::FlowNetwork net(6);
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 5), 23);
}

TEST(Dinic, DisconnectedIsZero) {
  f::FlowNetwork net(4);
  net.add_edge(0, 1, 5);
  net.add_edge(2, 3, 5);
  EXPECT_EQ(f::Dinic(net).max_flow(0, 3), 0);
}

TEST(Dinic, MinCutSeparatesSourceFromSink) {
  f::FlowNetwork net(4);
  net.add_edge(0, 1, 2);
  net.add_edge(1, 2, 1);  // bottleneck
  net.add_edge(2, 3, 2);
  f::Dinic dinic(net);
  EXPECT_EQ(dinic.max_flow(0, 3), 1);
  const auto side = dinic.min_cut_source_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[3]);
}

TEST(Dinic, FlowConservationAtInternalNodes) {
  f::FlowNetwork net(5);
  std::vector<f::EdgeId> edges;
  edges.push_back(net.add_edge(0, 1, 4));
  edges.push_back(net.add_edge(0, 2, 4));
  edges.push_back(net.add_edge(1, 3, 3));
  edges.push_back(net.add_edge(2, 3, 2));
  edges.push_back(net.add_edge(3, 4, 6));
  f::Dinic dinic(net);
  const auto total = dinic.max_flow(0, 4);
  EXPECT_EQ(total, 5);
  // in(3) == out(3)
  const auto in3 = net.flow_on(edges[2]) + net.flow_on(edges[3]);
  EXPECT_EQ(in3, net.flow_on(edges[4]));
}

// ----------------------------------------------------------------- problem

namespace {
f::ConnectionProblem random_problem(p2pvod::util::Rng& rng,
                                    std::uint32_t boxes,
                                    std::uint32_t requests,
                                    std::uint32_t max_capacity,
                                    double edge_prob) {
  f::ConnectionProblem problem(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b) {
    problem.set_capacity(
        b, static_cast<std::uint32_t>(rng.next_below(max_capacity + 1)));
  }
  for (std::uint32_t r = 0; r < requests; ++r) {
    std::vector<std::uint32_t> cands;
    for (std::uint32_t b = 0; b < boxes; ++b) {
      if (rng.next_bool(edge_prob)) cands.push_back(b);
    }
    problem.add_request(std::move(cands));
  }
  return problem;
}

/// CSR mirror of `problem`'s candidate rows.
f::CsrProblem to_csr(const f::ConnectionProblem& problem) {
  f::CsrProblem csr;
  if (problem.request_count() > 0) csr.ensure_row(problem.request_count() - 1);
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    for (const std::uint32_t b : problem.candidates(r)) csr.add_source(r, b);
  }
  return csr;
}

/// Solve `problem` from scratch with CsrMatcher: augment every row once.
f::MatchResult csr_solve(const f::ConnectionProblem& problem) {
  const f::CsrProblem csr = to_csr(problem);
  f::CsrMatcher matcher(problem.box_count());
  matcher.ensure_rows(problem.request_count());
  f::MatchResult result;
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (matcher.augment(csr, problem.capacities(), r)) ++result.served;
  }
  // Read back only now: later augmentations re-seat earlier rows.
  for (std::uint32_t r = 0; r < problem.request_count(); ++r)
    result.assignment.push_back(matcher.assignment(r));
  result.complete = result.served == problem.request_count();
  return result;
}
}  // namespace

TEST(ConnectionProblem, TrivialComplete) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0});
  p.add_request({1});
  const auto result = p.solve();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 1);
}

TEST(ConnectionProblem, InfeasibleWhenOversubscribed) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 1);
  p.add_request({0});
  p.add_request({0});
  const auto result = p.solve();
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.served, 1u);
}

// Dinic (the oracle) and CsrMatcher (the round loop's engine) are
// independent implementations: they must agree on the maximum.
TEST(ConnectionProblem, EnginesAgreeOnRandomInstances) {
  p2pvod::util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    auto problem = random_problem(rng, 8, 12, 3, 0.3);
    const auto dinic = problem.solve();
    const auto csr = csr_solve(problem);
    ASSERT_EQ(dinic.served, csr.served) << "trial " << trial;
  }
}

TEST(ConnectionProblem, AssignmentRespectsCapacities) {
  p2pvod::util::Rng rng(88);
  for (int trial = 0; trial < 25; ++trial) {
    auto problem = random_problem(rng, 6, 15, 2, 0.4);
    for (const auto& result : {problem.solve(), csr_solve(problem)}) {
      const auto degrees = result.box_degrees(problem.box_count());
      for (std::uint32_t b = 0; b < problem.box_count(); ++b)
        EXPECT_LE(degrees[b], problem.capacity(b));
      // Assignments must be candidates.
      for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
        if (result.assignment[r] < 0) continue;
        const auto& cands = problem.candidates(r);
        EXPECT_NE(std::find(cands.begin(), cands.end(),
                            static_cast<std::uint32_t>(result.assignment[r])),
                  cands.end());
      }
    }
  }
}

TEST(ConnectionProblem, WitnessOnlyWhenInfeasible) {
  f::ConnectionProblem feasible(2);
  feasible.set_capacity(0, 2);
  feasible.add_request({0});
  EXPECT_FALSE(feasible.infeasibility_witness().has_value());

  f::ConnectionProblem infeasible(1);
  infeasible.set_capacity(0, 1);
  infeasible.add_request({0});
  infeasible.add_request({0});
  const auto witness = infeasible.infeasibility_witness();
  ASSERT_TRUE(witness.has_value());
  EXPECT_FALSE(witness->empty());
}

TEST(ConnectionProblem, WitnessViolatesHall) {
  // Witness X must satisfy sum capacities of B(X) < |X|.
  p2pvod::util::Rng rng(99);
  int found = 0;
  for (int trial = 0; trial < 60; ++trial) {
    auto problem = random_problem(rng, 5, 10, 1, 0.25);
    const auto witness = problem.infeasibility_witness();
    if (!witness) continue;
    ++found;
    std::vector<bool> in_bx(problem.box_count(), false);
    std::uint64_t cap = 0;
    for (const auto r : *witness) {
      for (const auto b : problem.candidates(r)) {
        if (!in_bx[b]) {
          in_bx[b] = true;
          cap += problem.capacity(b);
        }
      }
    }
    EXPECT_LT(cap, witness->size());
  }
  EXPECT_GT(found, 0) << "no infeasible instance generated; weaken params";
}

TEST(ConnectionProblem, EdgeCountSums) {
  f::ConnectionProblem p(3);
  p.add_request({0, 1});
  p.add_request({2});
  EXPECT_EQ(p.edge_count(), 3u);
}

TEST(ConnectionProblem, RejectsForeignBoxes) {
  f::ConnectionProblem p(2);
  EXPECT_THROW(p.add_request({5}), std::out_of_range);
  EXPECT_THROW(p.set_capacities({1}), std::invalid_argument);
}

// ----------------------------------------------------------------- hall

TEST(Hall, FeasibleInstancePassesAllSubsets) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0, 1});
  EXPECT_TRUE(f::HallChecker::feasible(p));
}

TEST(Hall, DetectsViolation) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 1);
  p.add_request({0});
  p.add_request({0});
  const auto violation = f::HallChecker::find_violation(p);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->demand, 2u);
  EXPECT_EQ(violation->capacity, 1u);
}

TEST(Hall, SubsetChecker) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 0);
  p.set_capacity(1, 5);
  p.add_request({0});
  p.add_request({1});
  EXPECT_TRUE(f::HallChecker::check_subset(p, {0}).has_value());
  EXPECT_FALSE(f::HallChecker::check_subset(p, {1}).has_value());
}

TEST(Hall, RejectsHugeInstances) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 100);
  for (int i = 0; i < 30; ++i) p.add_request({0});
  EXPECT_THROW((void)f::HallChecker::find_violation(p),
               std::invalid_argument);
}

// Lemma 1 (min-cut max-flow): matching exists iff no Hall violation.
TEST(Hall, Lemma1EquivalenceOnRandomInstances) {
  p2pvod::util::Rng rng(123);
  int feasible_count = 0, infeasible_count = 0;
  for (int trial = 0; trial < 120; ++trial) {
    // Mean total capacity 7.5 vs 5 requests with dense edges: a healthy mix
    // of feasible and infeasible instances.
    auto problem = random_problem(rng, 5, 5, 3, 0.5);
    const bool by_flow = problem.solve().complete;
    const bool by_hall = f::HallChecker::feasible(problem);
    ASSERT_EQ(by_flow, by_hall) << "Lemma 1 equivalence failed, trial "
                                << trial;
    by_flow ? ++feasible_count : ++infeasible_count;
  }
  EXPECT_GT(feasible_count, 0);
  EXPECT_GT(infeasible_count, 0);
}

// ----------------------------------------------------------------- repair

// Cross-round repair, the way the CSR round engine drives CsrMatcher: each
// round rewrites some rows, drops assignments the rewritten rows no longer
// allow, and augments only the unmatched rows. The matching kept across
// rounds must stay valid and as large as Dinic's from-scratch maximum.
TEST(CsrMatcher, RepairAgreesWithDinicOnRandomSequences) {
  p2pvod::util::Rng rng(555);
  constexpr std::uint32_t kBoxes = 8;
  constexpr std::uint32_t kRows = 10;
  f::ConnectionProblem problem = random_problem(rng, kBoxes, kRows, 2, 0.35);
  f::CsrProblem csr = to_csr(problem);
  f::CsrMatcher matcher(kBoxes);
  matcher.ensure_rows(kRows);
  std::uint64_t kept = 0;
  for (int round = 0; round < 40; ++round) {
    if (round > 0) {
      // Rewrite every third row (rotating) with a fresh candidate set.
      f::ConnectionProblem next(kBoxes);
      next.set_capacities(problem.capacities());
      for (std::uint32_t r = 0; r < kRows; ++r) {
        std::vector<std::uint32_t> cands = problem.candidates(r);
        if ((r + static_cast<std::uint32_t>(round)) % 3 == 0) {
          cands.clear();
          for (std::uint32_t b = 0; b < kBoxes; ++b) {
            if (rng.next_bool(0.35)) cands.push_back(b);
          }
          const std::vector<std::uint32_t> counts(cands.size(), 1);
          csr.assign_row(r, cands, counts);
          const std::int32_t assigned = matcher.assignment(r);
          if (assigned >= 0 &&
              !csr.contains(r, static_cast<std::uint32_t>(assigned)))
            matcher.unassign(r);
        }
        next.add_request(std::move(cands));
      }
      problem = std::move(next);
    }
    f::MatchResult result;
    for (std::uint32_t r = 0; r < kRows; ++r) {
      if (matcher.assignment(r) >= 0) {
        ++kept;
        ++result.served;
      } else if (matcher.augment(csr, problem.capacities(), r)) {
        ++result.served;
      }
    }
    for (std::uint32_t r = 0; r < kRows; ++r)
      result.assignment.push_back(matcher.assignment(r));
    result.complete = result.served == kRows;
    ASSERT_NO_THROW(f::validate_assignment(problem, result))
        << "round " << round;
    ASSERT_EQ(result.served, problem.solve().served) << "round " << round;
  }
  EXPECT_GT(kept, 0u);
}

// ----------------------------------------------------------------- min-cost

namespace {
f::EdgeCosts random_costs(p2pvod::util::Rng& rng,
                          const f::ConnectionProblem& problem,
                          p2pvod::flow::Cost max_cost) {
  f::EdgeCosts costs(problem.request_count());
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    for (std::size_t j = 0; j < problem.candidates(r).size(); ++j) {
      costs[r].push_back(
          static_cast<f::Cost>(rng.next_below(max_cost + 1)));
    }
  }
  return costs;
}

void check_valid(const f::ConnectionProblem& problem,
                 const f::MinCostResult& result) {
  const auto degrees = result.match.box_degrees(problem.box_count());
  for (std::uint32_t b = 0; b < problem.box_count(); ++b)
    ASSERT_LE(degrees[b], problem.capacity(b));
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (result.match.assignment[r] < 0) continue;
    const auto& cands = problem.candidates(r);
    ASSERT_NE(std::find(cands.begin(), cands.end(),
                        static_cast<std::uint32_t>(
                            result.match.assignment[r])),
              cands.end());
  }
}
}  // namespace

TEST(MinCostMatcher, PrefersCheapEdge) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  const auto result = f::MinCostMatcher::solve(p, {{5, 2}});
  EXPECT_TRUE(result.match.complete);
  EXPECT_EQ(result.match.assignment[0], 1);
  EXPECT_EQ(result.total_cost, 2);
}

TEST(MinCostMatcher, MaximalityBeatsCheapness) {
  // Serving both requests requires the expensive wiring; a maximum matching
  // must never be traded for a cheaper partial one.
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0});
  const auto result = f::MinCostMatcher::solve(p, {{0, 100}, {0}});
  EXPECT_TRUE(result.match.complete);
  EXPECT_EQ(result.match.assignment[0], 1);
  EXPECT_EQ(result.match.assignment[1], 0);
  EXPECT_EQ(result.total_cost, 100);
}

TEST(MinCostMatcher, ZeroCostsDegradeToDinic) {
  p2pvod::util::Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    auto problem = random_problem(rng, 7, 12, 2, 0.35);
    f::EdgeCosts zero(problem.request_count());
    for (std::uint32_t r = 0; r < problem.request_count(); ++r)
      zero[r].assign(problem.candidates(r).size(), 0);
    const auto mincost = f::MinCostMatcher::solve(problem, zero);
    const auto dinic = problem.solve();
    ASSERT_EQ(mincost.match.served, dinic.served) << "trial " << trial;
    ASSERT_EQ(mincost.match.assignment, dinic.assignment) << "trial " << trial;
    ASSERT_EQ(mincost.total_cost, 0);
  }
}

// Acceptance property: on randomized small instances the SSP solver agrees
// with exhaustive enumeration on BOTH optimality criteria — matching size
// first, total cost second.
TEST(MinCostMatcher, AgreesWithBruteForceOnRandomInstances) {
  p2pvod::util::Rng rng(31337);
  for (int trial = 0; trial < 80; ++trial) {
    auto problem = random_problem(rng, 5, 6, 2, 0.45);
    const auto costs = random_costs(rng, problem, 7);
    const auto fast = f::MinCostMatcher::solve(problem, costs);
    const auto slow = f::min_cost_brute_force(problem, costs);
    ASSERT_EQ(fast.match.served, slow.match.served) << "trial " << trial;
    ASSERT_EQ(fast.total_cost, slow.total_cost) << "trial " << trial;
    check_valid(problem, fast);
  }
}

// The matching size must equal the cost-blind maximum at any cost profile:
// costs steer, they never shrink feasibility.
TEST(MinCostMatcher, ServedCountMatchesDinicUnderAnyCosts) {
  p2pvod::util::Rng rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    auto problem = random_problem(rng, 8, 14, 3, 0.3);
    const auto costs = random_costs(rng, problem, 9);
    const auto mincost = f::MinCostMatcher::solve(problem, costs);
    const auto dinic = problem.solve();
    ASSERT_EQ(mincost.match.served, dinic.served) << "trial " << trial;
    check_valid(problem, mincost);
  }
}

TEST(MinCostMatcher, DeterministicAcrossRepeatSolves) {
  p2pvod::util::Rng rng(99);
  auto problem = random_problem(rng, 6, 10, 2, 0.4);
  const auto costs = random_costs(rng, problem, 5);
  const auto first = f::MinCostMatcher::solve(problem, costs);
  const auto second = f::MinCostMatcher::solve(problem, costs);
  EXPECT_EQ(first.match.assignment, second.match.assignment);
  EXPECT_EQ(first.total_cost, second.total_cost);
}

TEST(MinCostMatcher, RejectsBadShapesAndNegativeCosts) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.add_request({0});
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {}),
               std::invalid_argument);
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {{1, 2}}),
               std::invalid_argument);
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, {{-1}}),
               std::invalid_argument);
  EXPECT_THROW((void)f::min_cost_brute_force(p, {{-1}}),
               std::invalid_argument);
}

// A cost at or above the solver's "unreachable" distance used to make the
// only augmenting path look absent: the matcher served 1 request where the
// maximum is 2. Such a cost is now rejected, and kMaxEdgeCost itself is
// solved exactly.
TEST(MinCostMatcher, RejectsCostsAboveTheBoundAndSolvesAtIt) {
  f::ConnectionProblem p(2);
  p.set_capacity(0, 1);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0});
  ASSERT_EQ(p.solve().served, 2u);
  const f::EdgeCosts huge{{0, 3'000'000'000'000'000'000}, {0}};
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, huge), std::invalid_argument);
  const f::EdgeCosts above{{0, f::kMaxEdgeCost + 1}, {0}};
  EXPECT_THROW((void)f::MinCostMatcher::solve(p, above), std::invalid_argument);
  const f::EdgeCosts bound{{0, f::kMaxEdgeCost}, {0}};
  const auto at_bound = f::MinCostMatcher::solve(p, bound);
  EXPECT_EQ(at_bound.match.served, 2u);
  EXPECT_EQ(at_bound.match.assignment[0], 1);
  EXPECT_EQ(at_bound.match.assignment[1], 0);
  EXPECT_EQ(at_bound.total_cost, f::kMaxEdgeCost);
}

// Costs of 0 or kMaxEdgeCost on random instances: still exact against the
// exhaustive reference, and still a maximum matching.
TEST(MinCostMatcher, ExactWithCostsAtTheBound) {
  p2pvod::util::Rng rng(16777216);
  for (int trial = 0; trial < 60; ++trial) {
    auto problem = random_problem(rng, 5, 6, 2, 0.45);
    f::EdgeCosts costs(problem.request_count());
    for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
      for (std::size_t j = 0; j < problem.candidates(r).size(); ++j)
        costs[r].push_back(rng.next_bool(0.5) ? f::kMaxEdgeCost : 0);
    }
    const auto fast = f::MinCostMatcher::solve(problem, costs);
    const auto slow = f::min_cost_brute_force(problem, costs);
    ASSERT_EQ(fast.match.served, problem.solve().served) << "trial " << trial;
    ASSERT_EQ(fast.match.served, slow.match.served) << "trial " << trial;
    ASSERT_EQ(fast.total_cost, slow.total_cost) << "trial " << trial;
    check_valid(problem, fast);
  }
}

namespace {

/// What the textbook solve did: its answer and the work it counted.
struct ReferenceSsp {
  f::MinCostResult result;
  std::uint64_t augmentations = 0;
  std::uint64_t potential_updates = 0;
  std::vector<std::uint64_t> path_lengths;  ///< edges, one per augmentation
};

/// Successive shortest paths on a FlowNetwork, one Dijkstra per augmenting
/// path with a lazy (distance, node) heap: the form MinCostMatcher had before
/// its bipartite kernel, which must take the same paths in the same order.
ReferenceSsp reference_ssp(const f::ConnectionProblem& problem,
                           const f::EdgeCosts& costs) {
  using f::Capacity;
  using f::Cost;
  using f::EdgeId;
  using f::NodeId;
  constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 4;
  ReferenceSsp out;
  bool all_zero = true;
  for (const auto& row : costs) {
    for (const Cost c : row) all_zero = all_zero && c == 0;
  }
  if (all_zero) {
    out.result.match = problem.solve();
    return out;
  }

  const std::uint32_t boxes = problem.box_count();
  const std::uint32_t requests = problem.request_count();
  f::FlowNetwork network(boxes + requests + 2);
  const NodeId source = boxes + requests;
  const NodeId sink = source + 1;

  std::vector<Cost> edge_cost;
  const auto add_edge = [&](NodeId from, NodeId to, Capacity cap, Cost cost) {
    const EdgeId id = network.add_edge(from, to, cap);
    edge_cost.resize(id + 2, 0);
    edge_cost[id] = cost;
    edge_cost[id + 1] = -cost;
    return id;
  };
  for (std::uint32_t b = 0; b < boxes; ++b) {
    if (problem.capacity(b) > 0) add_edge(source, b, problem.capacity(b), 0);
  }
  std::vector<std::vector<EdgeId>> request_box_edges(requests);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      request_box_edges[r].push_back(
          add_edge(candidates[j], boxes + r, 1, costs[r][j]));
    }
    add_edge(boxes + r, sink, 1, 0);
  }

  const NodeId nodes = network.node_count();
  std::vector<Cost> potential(nodes, 0);
  std::vector<Cost> dist(nodes);
  std::vector<EdgeId> parent_edge(nodes);
  std::vector<bool> settled(nodes);
  for (;;) {
    dist.assign(nodes, kInfCost);
    settled.assign(nodes, false);
    dist[source] = 0;
    using Entry = std::pair<Cost, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    queue.push({0, source});
    while (!queue.empty()) {
      const auto [d, v] = queue.top();
      queue.pop();
      if (settled[v]) continue;
      settled[v] = true;
      for (const EdgeId e : network.adjacency(v)) {
        if (network.residual(e) <= 0) continue;
        const NodeId to = network.edge_to(e);
        const Cost reduced = edge_cost[e] + potential[v] - potential[to];
        if (dist[v] + reduced < dist[to]) {
          dist[to] = dist[v] + reduced;
          parent_edge[to] = e;
          queue.push({dist[to], to});
        }
      }
    }
    if (dist[sink] >= kInfCost) break;
    ++out.augmentations;
    for (NodeId v = 0; v < nodes; ++v) {
      if (dist[v] < kInfCost) {
        potential[v] += dist[v];
        ++out.potential_updates;
      }
    }
    std::uint64_t path_edges = 0;
    for (NodeId v = sink; v != source;) {
      const EdgeId e = parent_edge[v];
      network.push(e, 1);
      v = network.edge_to(e ^ 1u);
      ++path_edges;
    }
    out.path_lengths.push_back(path_edges);
  }

  out.result.match.assignment.assign(requests, -1);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (network.flow_on(request_box_edges[r][j]) > 0) {
        out.result.match.assignment[r] =
            static_cast<std::int32_t>(candidates[j]);
        out.result.total_cost += costs[r][j];
        ++out.result.match.served;
        break;
      }
    }
  }
  out.result.match.complete = (out.result.match.served == requests);
  return out;
}

/// A random instance for the oracle test. `shape` picks the costs: 0..K for
/// K in {1, 2, 3, 4, 100}, or (shape 5) 0/1 zone costs with box b in zone
/// b % zones and each request in a random zone. Boxes have 0..5 slots. One
/// instance in three has 0..150 requests, the rest 0..40, which keeps the
/// quadratic reference affordable under the sanitizers. Candidate lists hold
/// 0..7 boxes, may repeat a box, and are left in draw order for half the
/// instances.
std::pair<f::ConnectionProblem, f::EdgeCosts> oracle_instance(
    p2pvod::util::Rng& rng, int shape) {
  constexpr std::uint64_t kMaxCosts[] = {1, 2, 3, 4, 100};
  const auto boxes = static_cast<std::uint32_t>(1 + rng.next_below(40));
  const std::uint64_t span = rng.next_bool(1.0 / 3) ? 151 : 41;
  const auto requests = static_cast<std::uint32_t>(rng.next_below(span));
  const auto zones = static_cast<std::uint32_t>(1 + rng.next_below(12));
  const bool sorted = rng.next_bool(0.5);
  f::ConnectionProblem problem(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b)
    problem.set_capacity(b, static_cast<std::uint32_t>(rng.next_below(6)));
  f::EdgeCosts costs(requests);
  for (std::uint32_t r = 0; r < requests; ++r) {
    std::vector<std::uint32_t> candidates(rng.next_below(8));
    for (auto& b : candidates)
      b = static_cast<std::uint32_t>(rng.next_below(boxes));
    if (sorted) std::sort(candidates.begin(), candidates.end());
    const auto zone = rng.next_below(zones);
    for (const std::uint32_t b : candidates) {
      if (shape == 5) {
        costs[r].push_back(b % zones == zone ? 0 : 1);
      } else {
        const auto cost = rng.next_below(kMaxCosts[shape] + 1);
        costs[r].push_back(static_cast<f::Cost>(cost));
      }
    }
    problem.add_request(std::move(candidates));
  }
  return {std::move(problem), std::move(costs)};
}

}  // namespace

// The bipartite kernel must take the textbook solve's augmenting paths one
// for one: same assignment (not just the same cost), same served count and
// cost, and the same work counted in the flow/min_cost_* metrics.
TEST(MinCostMatcher, FollowsTheTextbookSolvePathForPath) {
  auto& registry = p2pvod::obs::MetricsRegistry::global();
  auto& augmentations = registry.counter("flow/min_cost_augmentations");
  auto& updates = registry.counter("flow/min_cost_potential_updates");
  const std::vector<std::uint64_t> bounds = p2pvod::obs::pow2_bounds(8);
  auto& lengths = registry.histogram("flow/min_cost_path_length", bounds);
  const auto check = [&](const f::ConnectionProblem& problem,
                         const f::EdgeCosts& costs, int trial) {
    SCOPED_TRACE(trial);
    const ReferenceSsp want = reference_ssp(problem, costs);
    const std::uint64_t augmentations_before = augmentations.value();
    const std::uint64_t updates_before = updates.value();
    const std::uint64_t sum_before = lengths.sum();
    std::vector<std::uint64_t> buckets = lengths.bucket_counts();
    const f::MinCostResult got = f::MinCostMatcher::solve(problem, costs);

    ASSERT_EQ(got.match.assignment, want.result.match.assignment);
    ASSERT_EQ(got.match.served, want.result.match.served);
    ASSERT_EQ(got.match.complete, want.result.match.complete);
    ASSERT_EQ(got.total_cost, want.result.total_cost);
    ASSERT_EQ(augmentations.value() - augmentations_before, want.augmentations);
    ASSERT_EQ(updates.value() - updates_before, want.potential_updates);
    // The path-length histogram gained exactly the reference's lengths.
    p2pvod::obs::MetricsRegistry local;
    auto& expected = local.histogram("lengths", bounds);
    for (const std::uint64_t length : want.path_lengths)
      expected.observe(length);
    const std::vector<std::uint64_t> after = lengths.bucket_counts();
    for (std::size_t i = 0; i < buckets.size(); ++i)
      buckets[i] = after[i] - buckets[i];
    ASSERT_EQ(buckets, expected.bucket_counts());
    ASSERT_EQ(lengths.sum() - sum_before, expected.sum());
  };

  // No requests at all, with boxes and without.
  check(f::ConnectionProblem(3), {}, -1);
  check(f::ConnectionProblem(0), {}, -1);

  p2pvod::util::Rng rng(6496);
  for (int trial = 0; trial < 2400 && !HasFatalFailure(); ++trial) {
    const auto [problem, costs] = oracle_instance(rng, trial % 6);
    check(problem, costs, trial);
  }
}

TEST(MinCostBruteForce, RejectsHugeInstances) {
  f::ConnectionProblem p(8);
  for (std::uint32_t b = 0; b < 8; ++b) p.set_capacity(b, 8);
  f::EdgeCosts costs;
  for (int r = 0; r < 12; ++r) {
    p.add_request({0, 1, 2, 3, 4, 5, 6, 7});
    costs.push_back({0, 0, 0, 0, 0, 0, 0, 0});
  }
  EXPECT_THROW((void)f::min_cost_brute_force(p, costs),
               std::invalid_argument);
}

// ---------------------------------------------------------------- group caps

namespace {

/// Zone-style groups over a random problem: box b lives in zone b % zones,
/// request r in zone r % zones, and an edge's group is the directed zone
/// pair. Mirrors how the simulator maps link caps onto enforce_group_caps.
f::EdgeGroups zone_groups(const f::ConnectionProblem& problem,
                          std::uint32_t zones) {
  f::EdgeGroups groups(problem.request_count());
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    for (const std::uint32_t b : problem.candidates(r)) {
      groups[r].push_back((b % zones) * zones + (r % zones));
    }
  }
  return groups;
}

/// Count each group's usage under an assignment and check it against caps.
void check_group_budgets(const f::ConnectionProblem& problem,
                         const f::EdgeGroups& groups,
                         const std::vector<std::uint32_t>& caps,
                         const std::vector<std::int32_t>& assignment) {
  std::vector<std::uint32_t> used(caps.size(), 0);
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (assignment[r] < 0) continue;
    const auto& cands = problem.candidates(r);
    const auto it = std::find(cands.begin(), cands.end(),
                              static_cast<std::uint32_t>(assignment[r]));
    ASSERT_NE(it, cands.end());
    const std::uint32_t g =
        groups[r][static_cast<std::size_t>(it - cands.begin())];
    if (g != f::kUncappedGroup) ++used[g];
  }
  for (std::size_t g = 0; g < caps.size(); ++g) {
    if (caps[g] != f::kUncappedGroup) {
      ASSERT_LE(used[g], caps[g]);
    }
  }
}

}  // namespace

TEST(GroupCaps, AdmissionDropsOverCapThenRescues) {
  // Both requests matched onto box 0 (zone 0) from zone-0 requests is fine;
  // cap the 0->0 link at 1 and the second connection must be dropped, then
  // rescued onto box 1 over the uncapped 1->0 link.
  f::ConnectionProblem p(2);
  p.set_capacity(0, 2);
  p.set_capacity(1, 2);
  p.add_request({0, 1});
  p.add_request({0, 1});
  const f::EdgeCosts costs{{0, 1}, {0, 1}};
  const f::EdgeGroups groups{{0, 1}, {0, 1}};
  const std::vector<std::uint32_t> caps{1, f::kUncappedGroup};

  auto result = f::MinCostMatcher::solve(p, costs).match;
  ASSERT_EQ(result.served, 2u);
  ASSERT_EQ(result.assignment[0], 0);
  ASSERT_EQ(result.assignment[1], 0);

  const auto outcome = f::enforce_group_caps(p, costs, groups, caps, result);
  EXPECT_EQ(outcome.rejections, 1u);
  EXPECT_EQ(outcome.rescues, 1u);
  EXPECT_EQ(result.served, 2u);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 1);  // rescued over the uncapped group
}

TEST(GroupCaps, RescueRespectsBoxCapacity) {
  // The only alternative server has no spare upload slot: the dropped
  // request must stay unserved, never overloading the box.
  f::ConnectionProblem p(2);
  p.set_capacity(0, 2);
  p.set_capacity(1, 1);
  p.add_request({0, 1});
  p.add_request({0, 1});
  p.add_request({1});
  const f::EdgeCosts costs{{0, 0}, {0, 0}, {0}};
  const f::EdgeGroups groups{{0, 1}, {0, 1}, {1}};
  const std::vector<std::uint32_t> caps{1, f::kUncappedGroup};

  auto result = f::MinCostMatcher::solve(p, costs).match;
  ASSERT_EQ(result.served, 3u);
  const auto outcome = f::enforce_group_caps(p, costs, groups, caps, result);
  // Request 2 pins box 1, so requests 0 and 1 both sat on box 0's capped
  // group and the second was dropped. Its rescue candidates: box 0 is out of
  // group budget, box 1 out of upload slots -> it stays unserved.
  EXPECT_EQ(outcome.rejections, 1u);
  EXPECT_EQ(outcome.rescues, 0u);
  EXPECT_EQ(result.served, 2u);
  const auto degrees = result.box_degrees(2);
  EXPECT_LE(degrees[0], 2u);
  EXPECT_LE(degrees[1], 1u);
}

TEST(GroupCaps, UnlimitedBudgetAndUncappedEdgesNeverDrop) {
  // A caps[] entry of kUncappedGroup means unlimited budget; a groups[][j]
  // entry of kUncappedGroup means the edge is outside every group. Neither
  // may ever reject, no matter how much load they carry.
  f::ConnectionProblem p(1);
  p.set_capacity(0, 8);
  f::EdgeCosts costs;
  f::EdgeGroups groups;
  for (int r = 0; r < 8; ++r) {
    p.add_request({0});
    costs.push_back({0});
    groups.push_back({r % 2 == 0 ? 0u : f::kUncappedGroup});
  }
  const std::vector<std::uint32_t> caps{f::kUncappedGroup};
  auto result = p.solve();
  ASSERT_EQ(result.served, 8u);
  const auto outcome = f::enforce_group_caps(p, costs, groups, caps, result);
  EXPECT_EQ(outcome.rejections, 0u);
  EXPECT_EQ(outcome.rescues, 0u);
  EXPECT_EQ(result.served, 8u);
}

TEST(GroupCaps, RescuePicksCheapestThenLowestBox) {
  f::ConnectionProblem p(3);
  p.set_capacity(0, 2);  // room for both, so min-cost parks both on box 0
  p.set_capacity(1, 1);
  p.set_capacity(2, 1);
  p.add_request({0});
  p.add_request({0, 1, 2});
  // Both on the capped group through box 0 -> request 1 dropped; boxes 1 and
  // 2 tie on cost, the lower id must win.
  const f::EdgeCosts costs{{0}, {0, 3, 3}};
  const f::EdgeGroups groups{{0}, {0, 1, 1}};
  const std::vector<std::uint32_t> caps{1, f::kUncappedGroup};
  auto result = f::MinCostMatcher::solve(p, costs).match;
  ASSERT_EQ(result.assignment[0], 0);
  ASSERT_EQ(result.assignment[1], 0);
  const auto outcome = f::enforce_group_caps(p, costs, groups, caps, result);
  EXPECT_EQ(outcome.rescues, 1u);
  EXPECT_EQ(result.assignment[1], 1);
}

TEST(GroupCaps, RejectsBadShapesAndGroupIds) {
  f::ConnectionProblem p(1);
  p.set_capacity(0, 1);
  p.add_request({0});
  auto result = p.solve();
  // Row-count mismatch.
  EXPECT_THROW((void)f::enforce_group_caps(p, {{0}}, {}, {1}, result),
               std::invalid_argument);
  // Row-shape mismatch.
  EXPECT_THROW((void)f::enforce_group_caps(p, {{0}}, {{0, 1}}, {1}, result),
               std::invalid_argument);
  // Out-of-range group id.
  EXPECT_THROW((void)f::enforce_group_caps(p, {{0}}, {{7}}, {1}, result),
               std::invalid_argument);
}

TEST(CappedBruteForce, UnlimitedCapsMatchUncappedReference) {
  p2pvod::util::Rng rng(909);
  for (int trial = 0; trial < 20; ++trial) {
    auto problem = random_problem(rng, 4, 5, 2, 0.5);
    const auto costs = random_costs(rng, problem, 5);
    const auto groups = zone_groups(problem, 2);
    const std::vector<std::uint32_t> caps(4, f::kUncappedGroup);
    const auto capped =
        f::min_cost_capped_brute_force(problem, costs, groups, caps);
    const auto plain = f::min_cost_brute_force(problem, costs);
    ASSERT_EQ(capped.match.served, plain.match.served) << "trial " << trial;
    ASSERT_EQ(capped.total_cost, plain.total_cost) << "trial " << trial;
  }
}

// Acceptance property: on randomized capped instances,
//   admission-only served <= admission+rescue served <= exact capped served,
// and every assignment respects box capacities and group budgets. The exact
// solver upper-bounds the two-pass heuristic by construction.
TEST(GroupCaps, HeuristicBoundedByExactCappedSolver) {
  p2pvod::util::Rng rng(24601);
  for (int trial = 0; trial < 60; ++trial) {
    auto problem = random_problem(rng, 5, 6, 2, 0.45);
    const auto costs = random_costs(rng, problem, 4);
    const auto groups = zone_groups(problem, 2);
    std::vector<std::uint32_t> caps(4);
    for (auto& cap : caps) {
      cap = rng.next_bool(0.25)
                ? f::kUncappedGroup
                : static_cast<std::uint32_t>(rng.next_below(3));
    }

    auto heuristic = f::MinCostMatcher::solve(problem, costs).match;
    const auto outcome =
        f::enforce_group_caps(problem, costs, groups, caps, heuristic);
    ASSERT_LE(outcome.rescues, outcome.rejections) << "trial " << trial;
    const std::uint32_t admission_only = heuristic.served - static_cast<std::uint32_t>(outcome.rescues);

    const auto exact =
        f::min_cost_capped_brute_force(problem, costs, groups, caps);
    ASSERT_LE(admission_only, heuristic.served) << "trial " << trial;
    ASSERT_LE(heuristic.served, exact.match.served) << "trial " << trial;

    check_group_budgets(problem, groups, caps, heuristic.assignment);
    check_group_budgets(problem, groups, caps, exact.match.assignment);
    const auto degrees = heuristic.box_degrees(problem.box_count());
    for (std::uint32_t b = 0; b < problem.box_count(); ++b)
      ASSERT_LE(degrees[b], problem.capacity(b)) << "trial " << trial;
  }
}
