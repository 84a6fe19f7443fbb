#include "flow/min_cost.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "flow/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pvod::flow {

namespace {

constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 4;
// Every distance, potential and queue key is below 2^34 * kMaxEdgeCost
// (min_cost.hpp); keep that, with room to spare, below "unreachable".
static_assert((kMaxEdgeCost << 36) <= kInfCost,
              "kMaxEdgeCost must keep every distance below kInfCost");

constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
constexpr std::uint32_t kNoEntry = std::numeric_limits<std::uint32_t>::max();

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
      if (c > kMaxEdgeCost) {
        std::string what = "MinCostMatcher: request " + std::to_string(r);
        what += " has cost " + std::to_string(c) + ", above kMaxEdgeCost";
        throw std::invalid_argument(what);
      }
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

/// The tentative nodes at the current distance: a bitset over node ids with
/// one summary bit per nonzero word, so the lowest id pops in two
/// count-trailing-zeros steps.
class LevelSet {
 public:
  void reset(NodeId nodes) {
    words_.assign((static_cast<std::size_t>(nodes) + 63) / 64, 0);
    summary_.assign((words_.size() + 63) / 64, 0);
    first_ = summary_.size();
  }
  void insert(NodeId v) {
    const std::size_t word = v / 64;
    words_[word] |= std::uint64_t{1} << (v % 64);
    summary_[word / 64] |= std::uint64_t{1} << (word % 64);
    first_ = std::min(first_, word / 64);
  }
  /// The lowest id in the set, removed; kNoNode when the set is empty.
  NodeId pop_lowest() {
    while (first_ < summary_.size() && summary_[first_] == 0) ++first_;
    if (first_ == summary_.size()) return kNoNode;
    std::uint64_t& summary = summary_[first_];
    const std::size_t word = first_ * 64 + std::countr_zero(summary);
    std::uint64_t& bits = words_[word];
    const auto v = static_cast<NodeId>(word * 64 + std::countr_zero(bits));
    bits &= bits - 1;
    if (bits == 0) summary &= summary - 1;
    return v;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
  std::size_t first_ = 0;  ///< every summary word below this one is zero
};

/// A candidate edge seen from its box.
struct BoxArc {
  NodeId to;            ///< the request's node
  std::uint32_t entry;  ///< flat (request, candidate) index
  Cost cost;
};

/// The solver's working arrays, kept per thread so a round reuses the
/// previous round's allocations.
struct Workspace {
  std::vector<NodeId> entry_box;         ///< per entry: the candidate box
  std::vector<Cost> entry_cost;          ///< per entry: its cost
  std::vector<std::uint32_t> arc_begin;  ///< per box: first arc, plus an end
  std::vector<BoxArc> arcs;              ///< box -> request arcs, by box
  std::vector<std::uint32_t> match;      ///< per request: entry, or kNoEntry
  std::vector<std::uint32_t> used;       ///< per box: requests it serves
  std::vector<Cost> potential;           ///< per node
  std::vector<Cost> reach;               ///< per node: tentative distance
  /// Per node, how it was reached: a box holds the source or a request node,
  /// a request the entry it came through (kNoEntry from the sink), the sink
  /// a request node.
  std::vector<std::uint32_t> parent;
  std::vector<NodeId> settled;  ///< nodes settled by this Dijkstra
  LevelSet level;
  std::vector<std::pair<Cost, NodeId>> heap;  ///< keys above the level
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
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
  const NodeId source = boxes + requests;
  const NodeId sink = source + 1;
  const NodeId nodes = sink + 1;
  const std::vector<std::uint32_t>& capacity = problem.capacities();
  Workspace& ws = workspace();

  // Candidate entries in (request, candidate) order, then the box -> request
  // arcs bucketed by box by a counting sort filled from the back, so each box
  // lists its arcs in the same (request, candidate) order as FlowNetwork's
  // adjacency.
  ws.entry_box.clear();
  ws.entry_cost.clear();
  ws.arc_begin.assign(boxes + 1, 0);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const auto& candidates = problem.candidates(r);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      ws.entry_box.push_back(candidates[j]);
      ws.entry_cost.push_back(costs[r][j]);
      ++ws.arc_begin[candidates[j]];
    }
  }
  std::partial_sum(ws.arc_begin.begin(), ws.arc_begin.end(),
                   ws.arc_begin.begin());  // each box's end
  ws.arcs.resize(ws.entry_box.size());
  auto entry = static_cast<std::uint32_t>(ws.entry_box.size());
  for (std::uint32_t r = requests; r-- > 0;) {
    for (std::size_t j = problem.candidates(r).size(); j-- > 0;) {
      const NodeId box = ws.entry_box[--entry];
      ws.arcs[--ws.arc_begin[box]] = {boxes + r, entry, ws.entry_cost[entry]};
    }
  }

  ws.match.assign(requests, kNoEntry);
  ws.used.assign(boxes, 0);
  ws.potential.assign(nodes, 0);
  ws.reach.assign(nodes, kInfCost);
  ws.parent.resize(nodes);
  ws.level.reset(nodes);
  ws.heap.clear();
  ws.settled.clear();

  // Successive shortest paths with Johnson potentials. Costs are
  // non-negative, so zero potentials are feasible and reduced costs stay
  // non-negative: no relaxation lands below the level being settled.
  // reach[v] is the tentative distance in original costs, so a relaxation
  // compares reach[u] + cost against reach[to] alone; the queue orders nodes
  // by the reduced distance reach[v] - potential[v], ties to the lower id.
  Cost level = 0;  // the reduced distance being settled
  const auto relax = [&](NodeId to, Cost reach, std::uint32_t parent) {
    if (reach >= ws.reach[to]) return;
    ws.reach[to] = reach;
    ws.parent[to] = parent;
    const Cost key = reach - ws.potential[to];
    if (key == level) {
      ws.level.insert(to);
    } else {
      ws.heap.emplace_back(key, to);
      std::push_heap(ws.heap.begin(), ws.heap.end(), std::greater<>());
    }
  };
  std::uint64_t augmentations = 0;
  std::uint64_t potential_updates = 0;
  for (;;) {
    level = 0;
    ws.reach[source] = 0;
    ws.level.insert(source);
    for (;;) {
      NodeId v = ws.level.pop_lowest();
      if (v == kNoNode) {
        // Level exhausted: open the next one with every live heap entry at
        // the least remaining key (v holds the first). A stale entry's key
        // exceeds its node's.
        while (!ws.heap.empty()) {
          const auto [key, to] = ws.heap.front();
          if (v != kNoNode && key != level) break;
          std::pop_heap(ws.heap.begin(), ws.heap.end(), std::greater<>());
          ws.heap.pop_back();
          if (key != ws.reach[to] - ws.potential[to]) continue;
          level = key;
          v = to;
          ws.level.insert(to);
        }
        if (v == kNoNode) break;
        v = ws.level.pop_lowest();
      }
      ws.settled.push_back(v);
      const Cost at = ws.reach[v];
      if (v < boxes) {
        for (std::uint32_t a = ws.arc_begin[v]; a < ws.arc_begin[v + 1]; ++a) {
          const BoxArc& arc = ws.arcs[a];
          if (ws.match[arc.to - boxes] == arc.entry) continue;  // saturated
          relax(arc.to, at + arc.cost, arc.entry);
        }
      } else if (v < source) {
        // A request's one residual arc: back to its box, or on to the sink.
        const std::uint32_t entry = ws.match[v - boxes];
        if (entry == kNoEntry) {
          relax(sink, at, v);
        } else {
          relax(ws.entry_box[entry], at - ws.entry_cost[entry], v);
        }
      } else if (v == source) {
        for (std::uint32_t b = 0; b < boxes; ++b) {
          if (ws.used[b] < capacity[b]) relax(b, at, source);
        }
      } else {
        for (std::uint32_t r = 0; r < requests; ++r) {
          if (ws.match[r] != kNoEntry) relax(boxes + r, at, kNoEntry);
        }
      }
    }
    if (ws.reach[sink] >= kInfCost) break;  // no augmenting path left
    ++augmentations;

    potential_updates += ws.settled.size();
    for (const NodeId v : ws.settled) {
      ws.potential[v] = ws.reach[v];
      ws.reach[v] = kInfCost;
    }
    ws.settled.clear();

    // Walk the path back from the sink: each request on it takes the entry
    // it was reached through, and the box that opens it gains one slot.
    std::uint64_t path_edges = 1;  // request -> sink
    for (NodeId request = ws.parent[sink];;) {
      const std::uint32_t entry = ws.parent[request];
      ws.match[request - boxes] = entry;
      const NodeId box = ws.entry_box[entry];
      path_edges += 2;  // box -> request, and the arc into the box
      if (ws.parent[box] == source) {
        ++ws.used[box];
        break;
      }
      request = ws.parent[box];
    }
    path_length_histogram().observe(path_edges);
  }
  augmentations_counter().add(augmentations);
  potential_updates_counter().add(potential_updates);

  MinCostResult result;
  result.match.assignment.assign(requests, -1);
  for (std::uint32_t r = 0; r < requests; ++r) {
    const std::uint32_t entry = ws.match[r];
    if (entry == kNoEntry) continue;
    result.match.assignment[r] = static_cast<std::int32_t>(ws.entry_box[entry]);
    result.total_cost += ws.entry_cost[entry];
    ++result.match.served;
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
