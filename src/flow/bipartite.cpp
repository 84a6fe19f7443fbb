#include "flow/bipartite.hpp"

#include <stdexcept>

#include "flow/dinic.hpp"

namespace p2pvod::flow {

std::vector<std::uint32_t> MatchResult::box_degrees(
    std::uint32_t box_count) const {
  std::vector<std::uint32_t> degrees(box_count, 0);
  for (const std::int32_t b : assignment) {
    if (b >= 0) ++degrees[static_cast<std::uint32_t>(b)];
  }
  return degrees;
}

ConnectionProblem::ConnectionProblem(std::uint32_t box_count)
    : capacity_(box_count, 0) {}

void ConnectionProblem::set_capacity(std::uint32_t box,
                                     std::uint32_t capacity) {
  capacity_.at(box) = capacity;
}

void ConnectionProblem::set_capacities(std::vector<std::uint32_t> capacities) {
  if (capacities.size() != capacity_.size())
    throw std::invalid_argument("set_capacities: size mismatch");
  capacity_ = std::move(capacities);
}

std::uint32_t ConnectionProblem::add_request(
    std::vector<std::uint32_t> candidate_boxes) {
  for (const std::uint32_t b : candidate_boxes) {
    if (b >= capacity_.size())
      throw std::out_of_range("add_request: candidate box out of range");
  }
  candidates_.push_back(std::move(candidate_boxes));
  return static_cast<std::uint32_t>(candidates_.size() - 1);
}

std::uint64_t ConnectionProblem::edge_count() const noexcept {
  std::uint64_t edges = 0;
  for (const auto& cands : candidates_) edges += cands.size();
  return edges;
}

MatchResult ConnectionProblem::solve() const {
  // Network of §2.3: source -> box (cap ⌊u_b c⌋), box -> request (cap 1),
  // request -> sink (cap 1). Requests scaled by c so all capacities integral.
  const std::uint32_t boxes = box_count();
  const std::uint32_t requests = request_count();
  FlowNetwork network(boxes + requests + 2);
  const NodeId source = boxes + requests;
  const NodeId sink = source + 1;

  std::vector<EdgeId> request_sink_edge(requests);
  std::vector<std::vector<EdgeId>> request_box_edges(requests);
  for (std::uint32_t b = 0; b < boxes; ++b) {
    if (capacity_[b] > 0) network.add_edge(source, b, capacity_[b]);
  }
  for (std::uint32_t r = 0; r < requests; ++r) {
    request_box_edges[r].reserve(candidates_[r].size());
    for (const std::uint32_t b : candidates_[r]) {
      request_box_edges[r].push_back(network.add_edge(b, boxes + r, 1));
    }
    request_sink_edge[r] = network.add_edge(boxes + r, sink, 1);
  }

  Dinic dinic(network);
  const Capacity flow = dinic.max_flow(source, sink);

  MatchResult result;
  result.assignment.assign(requests, -1);
  result.served = static_cast<std::uint32_t>(flow);
  result.complete = (result.served == requests);
  for (std::uint32_t r = 0; r < requests; ++r) {
    for (std::size_t j = 0; j < candidates_[r].size(); ++j) {
      if (network.flow_on(request_box_edges[r][j]) > 0) {
        result.assignment[r] = static_cast<std::int32_t>(candidates_[r][j]);
        break;
      }
    }
  }
  return result;
}

std::optional<std::vector<std::uint32_t>>
ConnectionProblem::infeasibility_witness() const {
  // Rebuild the flow network, run max-flow, and if some request is unserved
  // read the min cut: X = requests on the source side of the cut whose entire
  // candidate set is saturated (also source side). Such X violates
  // U_B(X) >= |X|/c in slot units.
  const std::uint32_t boxes = box_count();
  const std::uint32_t requests = request_count();
  FlowNetwork network(boxes + requests + 2);
  const NodeId source = boxes + requests;
  const NodeId sink = source + 1;
  for (std::uint32_t b = 0; b < boxes; ++b) {
    if (capacity_[b] > 0) network.add_edge(source, b, capacity_[b]);
  }
  for (std::uint32_t r = 0; r < requests; ++r) {
    for (const std::uint32_t b : candidates_[r]) {
      network.add_edge(b, boxes + r, 1);
    }
    network.add_edge(boxes + r, sink, 1);
  }
  Dinic dinic(network);
  const Capacity flow = dinic.max_flow(source, sink);
  if (flow == requests) return std::nullopt;

  const std::vector<bool> source_side = dinic.min_cut_source_side(source);
  // X = sink-side requests whose candidate boxes are all sink-side. The cut
  // accounting of Lemma 1 then gives sum of capacities of B(X) < |X| (in
  // stripe-slot units), i.e. a Hall violation, and X is non-empty whenever
  // the flow is short of |Y|.
  std::vector<std::uint32_t> witness;
  for (std::uint32_t r = 0; r < requests; ++r) {
    if (source_side[boxes + r]) continue;
    bool all_sink_side = true;
    for (const std::uint32_t b : candidates_[r]) {
      if (source_side[b]) {
        all_sink_side = false;
        break;
      }
    }
    if (all_sink_side) witness.push_back(r);
  }
  return witness;
}

}  // namespace p2pvod::flow
