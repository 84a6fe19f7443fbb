#include "flow/min_cost.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "flow/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pvod::flow {

namespace {

constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 4;

// Solver work counters. All kStable: the algorithm is sequential and
// deterministic per instance, and the multiset of instances solved is
// thread-count-invariant under the repo's seeding contract.
obs::Counter& solves_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/min_cost_solves");
  return counter;
}
obs::Counter& augmentations_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/min_cost_augmentations");
  return counter;
}
obs::Counter& potential_updates_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "flow/min_cost_potential_updates");
  return counter;
}
obs::Histogram& path_length_histogram() {
  static obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      "flow/min_cost_path_length", obs::pow2_bounds(8));
  return histogram;
}

void validate(const ConnectionProblem& problem, const EdgeCosts& costs) {
  if (costs.size() != problem.request_count())
    throw std::invalid_argument(
        "MinCostMatcher: costs row count != request count");
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (costs[r].size() != problem.candidates(r).size())
      throw std::invalid_argument(
          "MinCostMatcher: costs row shape != candidate set");
    for (const Cost c : costs[r]) {
      if (c < 0)
        throw std::invalid_argument("MinCostMatcher: negative edge cost");
    }
  }
}

void validate_groups(const ConnectionProblem& problem,
                     const EdgeGroups& groups,
                     const std::vector<std::uint32_t>& caps) {
  if (groups.size() != problem.request_count())
    throw std::invalid_argument(
        "enforce_group_caps: groups row count != request count");
  for (std::uint32_t r = 0; r < problem.request_count(); ++r) {
    if (groups[r].size() != problem.candidates(r).size())
      throw std::invalid_argument(
          "enforce_group_caps: groups row shape != candidate set");
    for (const std::uint32_t g : groups[r]) {
      if (g != kUncappedGroup && g >= caps.size())
        throw std::invalid_argument(
            "enforce_group_caps: group id out of range");
    }
  }
}

bool all_zero(const EdgeCosts& costs) {
  for (const auto& row : costs) {
    for (const Cost c : row) {
      if (c != 0) return false;
    }
  }
  return true;
}

}  // namespace

MinCostResult MinCostMatcher::solve(const ConnectionProblem& problem,
                                    const EdgeCosts& costs) {
  OBS_SPAN("flow/min_cost");
  solves_counter().add();
  validate(problem, costs);

  // All-zero costs: every maximum matching is min-cost, so the plain Dinic
  // feasibility solve is the answer (and the cheaper path).
  if (all_zero(costs)) {
    MinCostResult result;
    result.match = problem.solve();
    return result;
  }

  const std::uint32_t boxes = problem.box_count();
  const std::uint32_t requests = problem.request_count();
  FlowNetwork network(boxes + requests + 2);
  const NodeId source = boxes + requests;
  const NodeId sink = source + 1;

  // edge_cost[e] is the cost of traversing (forward or residual) edge e;
  // reverse edges refund the forward cost.
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
    request_box_edges[r].reserve(candidates.size());
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      request_box_edges[r].push_back(
          add_edge(candidates[j], boxes + r, 1, costs[r][j]));
    }
    add_edge(boxes + r, sink, 1, 0);
  }

  // Successive shortest paths with Johnson potentials. All original costs
  // are non-negative, so the initial zero potentials are feasible and every
  // reduced cost stays non-negative across augmentations.
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
    if (dist[sink] >= kInfCost) break;  // no augmenting path left
    augmentations_counter().add();

    std::uint64_t updated = 0;
    for (NodeId v = 0; v < nodes; ++v) {
      if (dist[v] < kInfCost) {
        potential[v] += dist[v];
        ++updated;
      }
    }
    potential_updates_counter().add(updated);

    // Bottleneck is 1 (every path crosses a unit request->sink edge), but
    // compute it anyway so the loop stays correct if the reduction changes.
    Capacity bottleneck = kInfCapacity;
    std::uint64_t path_edges = 0;
    for (NodeId v = sink; v != source;) {
      const EdgeId e = parent_edge[v];
      bottleneck = std::min(bottleneck, network.residual(e));
      v = network.edge_to(e ^ 1u);
      ++path_edges;
    }
    path_length_histogram().observe(path_edges);
    for (NodeId v = sink; v != source;) {
      const EdgeId e = parent_edge[v];
      network.push(e, bottleneck);
      v = network.edge_to(e ^ 1u);
    }
  }

  MinCostResult result;
  result.match.assignment.assign(requests, -1);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (network.flow_on(request_box_edges[r][j]) > 0) {
        result.match.assignment[r] = static_cast<std::int32_t>(candidates[j]);
        result.total_cost += costs[r][j];
        ++result.match.served;
        break;
      }
    }
  }
  result.match.complete = (result.match.served == requests);
  return result;
}

MinCostResult min_cost_brute_force(const ConnectionProblem& problem,
                                   const EdgeCosts& costs) {
  validate(problem, costs);
  const std::uint32_t requests = problem.request_count();

  double states = 1.0;
  for (std::uint32_t r = 0; r < requests; ++r) {
    states *= static_cast<double>(problem.candidates(r).size() + 1);
    if (states > static_cast<double>(1u << 22))
      throw std::invalid_argument(
          "min_cost_brute_force: instance too large to enumerate");
  }

  std::vector<std::uint32_t> remaining(problem.capacities());
  std::vector<std::int32_t> assignment(requests, -1);
  MinCostResult best;
  best.match.assignment.assign(requests, -1);
  best.total_cost = kInfCost;

  // Depth-first over requests: leave r unserved or give it any candidate
  // with spare capacity; keep (max served, min cost) at the leaves.
  const auto recurse = [&](const auto& self, std::uint32_t r,
                           std::uint32_t served, Cost cost) -> void {
    if (r == requests) {
      if (served > best.match.served ||
          (served == best.match.served && cost < best.total_cost)) {
        best.match.served = served;
        best.total_cost = cost;
        best.match.assignment = assignment;
      }
      return;
    }
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      const std::uint32_t b = candidates[j];
      if (remaining[b] == 0) continue;
      --remaining[b];
      assignment[r] = static_cast<std::int32_t>(b);
      self(self, r + 1, served + 1, cost + costs[r][j]);
      assignment[r] = -1;
      ++remaining[b];
    }
    self(self, r + 1, served, cost);
  };
  recurse(recurse, 0, 0, 0);  // the all-unserved leaf always updates `best`

  best.match.complete = (best.match.served == requests);
  return best;
}

GroupCapOutcome enforce_group_caps(const ConnectionProblem& problem,
                                   const EdgeCosts& costs,
                                   const EdgeGroups& groups,
                                   const std::vector<std::uint32_t>& caps,
                                   MatchResult& result) {
  validate(problem, costs);
  validate_groups(problem, groups, caps);
  if (result.assignment.size() != problem.request_count())
    throw std::invalid_argument(
        "enforce_group_caps: result shape != request count");

  std::vector<std::uint32_t> budget(caps);
  // The candidate index of request r's assignment — groups and costs are
  // candidate-indexed, the assignment is a box id.
  const auto candidate_index = [&](std::uint32_t r, std::uint32_t box) {
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (candidates[j] == box) return j;
    }
    throw std::invalid_argument(
        "enforce_group_caps: assigned box is not a candidate");
  };

  GroupCapOutcome outcome;
  // Pass 1 — admission control in request order: connections beyond a
  // group's cap are dropped and counted. Deterministic (no RNG, fixed
  // order).
  std::vector<std::uint32_t> rejected;
  for (std::uint32_t r = 0; r < result.assignment.size(); ++r) {
    const std::int32_t assigned = result.assignment[r];
    if (assigned < 0) continue;
    const std::uint32_t g =
        groups[r][candidate_index(r, static_cast<std::uint32_t>(assigned))];
    if (g == kUncappedGroup) continue;
    std::uint32_t& left = budget[g];
    if (left == kUncappedGroup) continue;  // unlimited budget
    if (left == 0) {
      result.assignment[r] = -1;
      --result.served;
      ++outcome.rejections;
      rejected.push_back(r);
    } else {
      --left;
    }
  }

  // Pass 2 — one greedy rescue attempt per dropped request: the cheapest
  // candidate (ties to the lowest box id) with spare box capacity and group
  // budget. No augmenting here; a rescue never displaces a kept connection.
  if (!rejected.empty()) {
    std::vector<std::uint32_t> degree =
        result.box_degrees(problem.box_count());
    for (const std::uint32_t r : rejected) {
      const auto& candidates = problem.candidates(r);
      std::int32_t best = -1;
      std::size_t best_j = 0;
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        const std::uint32_t b = candidates[j];
        if (degree[b] >= problem.capacity(b)) continue;
        const std::uint32_t g = groups[r][j];
        if (g != kUncappedGroup && budget[g] == 0) continue;
        if (best < 0 || costs[r][j] < costs[r][best_j] ||
            (costs[r][j] == costs[r][best_j] &&
             b < static_cast<std::uint32_t>(best))) {
          best = static_cast<std::int32_t>(b);
          best_j = j;
        }
      }
      if (best < 0) continue;
      result.assignment[r] = best;
      ++result.served;
      ++outcome.rescues;
      ++degree[static_cast<std::uint32_t>(best)];
      const std::uint32_t g = groups[r][best_j];
      if (g != kUncappedGroup && budget[g] != kUncappedGroup) --budget[g];
    }
  }
  result.complete =
      (result.served == static_cast<std::uint32_t>(result.assignment.size()));
  return outcome;
}

MinCostResult min_cost_capped_brute_force(
    const ConnectionProblem& problem, const EdgeCosts& costs,
    const EdgeGroups& groups, const std::vector<std::uint32_t>& caps) {
  validate(problem, costs);
  validate_groups(problem, groups, caps);
  const std::uint32_t requests = problem.request_count();

  double states = 1.0;
  for (std::uint32_t r = 0; r < requests; ++r) {
    states *= static_cast<double>(problem.candidates(r).size() + 1);
    if (states > static_cast<double>(1u << 22))
      throw std::invalid_argument(
          "min_cost_capped_brute_force: instance too large to enumerate");
  }

  std::vector<std::uint32_t> remaining(problem.capacities());
  std::vector<std::uint32_t> budget(caps);
  std::vector<std::int32_t> assignment(requests, -1);
  MinCostResult best;
  best.match.assignment.assign(requests, -1);
  best.total_cost = kInfCost;

  // min_cost_brute_force's DFS plus a group-budget dimension: an edge in a
  // capped group consumes one unit of that group's budget for the subtree.
  const auto recurse = [&](const auto& self, std::uint32_t r,
                           std::uint32_t served, Cost cost) -> void {
    if (r == requests) {
      if (served > best.match.served ||
          (served == best.match.served && cost < best.total_cost)) {
        best.match.served = served;
        best.total_cost = cost;
        best.match.assignment = assignment;
      }
      return;
    }
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      const std::uint32_t b = candidates[j];
      if (remaining[b] == 0) continue;
      const std::uint32_t g = groups[r][j];
      const bool capped = g != kUncappedGroup && budget[g] != kUncappedGroup;
      if (capped && budget[g] == 0) continue;
      --remaining[b];
      if (capped) --budget[g];
      assignment[r] = static_cast<std::int32_t>(b);
      self(self, r + 1, served + 1, cost + costs[r][j]);
      assignment[r] = -1;
      if (capped) ++budget[g];
      ++remaining[b];
    }
    self(self, r + 1, served, cost);
  };
  recurse(recurse, 0, 0, 0);  // the all-unserved leaf always updates `best`

  best.match.complete = (best.match.served == requests);
  return best;
}

}  // namespace p2pvod::flow
