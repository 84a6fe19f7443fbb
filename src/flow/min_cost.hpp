// Min-cost connection matching: among all maximum matchings of a
// ConnectionProblem, find one of minimum total edge cost.
//
// The reduction extends the §2.3 feasibility network with per-edge costs
// (source->box and request->sink edges cost 0, the candidate edge (b, r)
// costs whatever the caller says — in the simulator, the zone-pair transit
// cost between server and requester). Successive shortest paths with
// Johnson potentials keeps every Dijkstra non-negative, so the solver is
// exact: after k augmentations the flow is a minimum-cost flow of value k,
// hence the final matching is maximum (same size as Dinic's) and of minimum
// cost among maximum matchings. When every cost is zero the solver falls
// back to the plain Dinic solve — the cost machinery must never change
// feasibility answers.
//
// The kernel works on the bipartite network directly instead of a
// FlowNetwork. Node ids are those of the §2.3 network: boxes 0..B-1,
// requests from B, the source B+R and the sink B+R+1. Box -> request arcs
// sit in flat arrays, each box's in (request, candidate) order; a request
// has exactly one residual out-arc, back to the box serving it or on to the
// sink; the source reaches every box with a spare slot and the sink every
// served request. Arcs that can never relax a node are not stored: box ->
// source (the source settles first, at distance 0), request -> box arcs
// without residual capacity, and, through the strict test, arcs into
// settled nodes (reduced costs are non-negative).
//
// The queue keeps the nodes at the current reduced distance in a bitset
// over node ids and pops the lowest id; nodes further out wait in a lazy
// heap. With the 0/1 zone costs nearly every node sits at distance 0 or 1.
//
// Exactness. The augmenting paths are, one for one, those of the textbook
// FlowNetwork form with a lazy (distance, node) heap (tests/test_flow.cpp
// keeps it as the oracle), so the matching returned is a fixed function of
// the problem:
//   - pop order: each Dijkstra settles the tentative node of least
//     (distance, id), the order of that heap, whose keys never repeat
//     because a key is pushed only on a strict improvement;
//   - parents: a node scans its arcs in FlowNetwork's adjacency order
//     (increasing edge id), and a node's parent is the first arc that
//     reaches its final distance (strict <);
//   - potentials: every Dijkstra runs to exhaustion and every node it
//     reached gets potential += distance. Stopping at the sink would leave
//     other potentials, and other later paths.
//
// Cost bound. A cost above kMaxEdgeCost is rejected. A node count is below
// 2^33 (two 32-bit counts), every potential is a past shortest-path length
// and every tentative distance extends one by an arc, so each is a sum of
// at most 2^33 arc costs; a queue key is a distance minus a potential. At
// 2^24 per arc all of them stay below 2^58, under the 2^61 that marks
// "unreachable", and a total cost below 2^56.
//
// Workspace. The working arrays live in one workspace per thread that each
// solve reuses; once warm, a solve allocates only its result.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/bipartite.hpp"

namespace p2pvod::flow {

using Cost = std::int64_t;

/// Per-request candidate costs: costs[r][j] is the cost of serving request r
/// from candidates(r)[j]. Shapes must match the problem exactly.
using EdgeCosts = std::vector<std::vector<Cost>>;

/// The largest edge cost the min-cost solvers accept (derivation above).
inline constexpr Cost kMaxEdgeCost = Cost{1} << 24;

struct MinCostResult {
  MatchResult match;
  Cost total_cost = 0;
};

class MinCostMatcher {
 public:
  /// Solve for a maximum matching of minimum total cost. Costs must lie in
  /// [0, kMaxEdgeCost]; throws std::invalid_argument on a shape mismatch or
  /// a cost outside it. Deterministic for a given problem (no RNG, fixed
  /// iteration order).
  [[nodiscard]] static MinCostResult solve(const ConnectionProblem& problem,
                                           const EdgeCosts& costs);
};

/// Exponential reference: enumerate every assignment, keep the best
/// (maximum served, then minimum cost). For the property tests cross-checking
/// MinCostMatcher on small instances; throws std::invalid_argument when the
/// search space exceeds ~2^22 states.
[[nodiscard]] MinCostResult min_cost_brute_force(
    const ConnectionProblem& problem, const EdgeCosts& costs);

/// Per-edge cap groups: groups[r][j] names the shared-capacity group of the
/// edge serving request r from candidates(r)[j] (in the simulator, the
/// directed zone-pair link between the server's and the requester's zones).
/// Same shape contract as EdgeCosts.
using EdgeGroups = std::vector<std::vector<std::uint32_t>>;

/// "This edge belongs to no cap group." A caps[] entry of the same value
/// means the group exists but its budget is unlimited. Numerically equal to
/// net::kUnlimitedLink — the simulator pins that with a static_assert so the
/// topology's cap matrix can be passed through unchanged.
inline constexpr std::uint32_t kUncappedGroup =
    static_cast<std::uint32_t>(-1);

/// What enforce_group_caps did to the matching. `rejections` counts pass-1
/// admission drops — every connection over a group's cap, whether or not
/// pass 2 later rescued it — and `rescues` counts the dropped requests pass 2
/// re-seated, so served-by-admission-alone = result.served - rescues.
struct GroupCapOutcome {
  std::uint64_t rejections = 0;  ///< pass-1 drops (rescued or not)
  std::uint64_t rescues = 0;     ///< pass-2 re-seats of dropped requests
};

/// Cap enforcement over a solved matching, in two deterministic passes:
/// pass 1 walks requests in order and drops any connection whose group is out
/// of budget (admission control); pass 2 gives each dropped request one
/// greedy rescue — the cheapest candidate (ties to the lowest box id) with
/// spare box capacity and group budget. A rescue never displaces a kept
/// connection, so the result can fall short of the true capped optimum;
/// min_cost_capped_brute_force is the exact reference bounding that loss.
/// Mutates `result` (assignment/served/complete) in place. Throws
/// std::invalid_argument on a shape mismatch, an out-of-range group id, or an
/// assignment that is not among the request's candidates.
GroupCapOutcome enforce_group_caps(const ConnectionProblem& problem,
                                   const EdgeCosts& costs,
                                   const EdgeGroups& groups,
                                   const std::vector<std::uint32_t>& caps,
                                   MatchResult& result);

/// Exponential reference for the capped problem: the best assignment (maximum
/// served, then minimum cost) that respects box capacities AND the group
/// caps. Upper-bounds what admission control + rescue can serve; same ~2^22
/// state guard as min_cost_brute_force. Exact capped matching is not a plain
/// flow problem — routing flow through a shared group node would let a
/// request borrow a non-candidate box — hence the exhaustive search.
[[nodiscard]] MinCostResult min_cost_capped_brute_force(
    const ConnectionProblem& problem, const EdgeCosts& costs,
    const EdgeGroups& groups, const std::vector<std::uint32_t>& caps);

}  // namespace p2pvod::flow
