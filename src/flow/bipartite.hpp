// ConnectionProblem: one round of the paper's connection-matching question.
//
// Given the set Y of active stripe requests and, for each request, the set
// B(x) of boxes currently possessing the needed data (static replicas plus
// playback caches, §2.2), find a sub-graph where every request has degree 1
// and every box b has degree at most ⌊u_b c⌋. Lemma 1 reduces existence to a
// max-flow computation; this class owns the reduction and result extraction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/graph.hpp"

namespace p2pvod::flow {

struct MatchResult {
  /// assignment[r] = serving box for request r, or -1 if unserved.
  std::vector<std::int32_t> assignment;
  std::uint32_t served = 0;
  bool complete = false;  ///< every request served

  /// Per-box degree under the returned assignment.
  [[nodiscard]] std::vector<std::uint32_t> box_degrees(
      std::uint32_t box_count) const;
};

class ConnectionProblem {
 public:
  explicit ConnectionProblem(std::uint32_t box_count);

  /// Set box capacity (stripe connections per round), ⌊u_b c⌋.
  void set_capacity(std::uint32_t box, std::uint32_t capacity);
  void set_capacities(std::vector<std::uint32_t> capacities);

  /// Add a request and its candidate server set; returns request index.
  std::uint32_t add_request(std::vector<std::uint32_t> candidate_boxes);

  [[nodiscard]] std::uint32_t box_count() const noexcept {
    return static_cast<std::uint32_t>(capacity_.size());
  }
  [[nodiscard]] std::uint32_t request_count() const noexcept {
    return static_cast<std::uint32_t>(candidates_.size());
  }
  [[nodiscard]] const std::vector<std::uint32_t>& candidates(
      std::uint32_t request) const {
    return candidates_.at(request);
  }
  [[nodiscard]] std::uint32_t capacity(std::uint32_t box) const {
    return capacity_.at(box);
  }
  [[nodiscard]] const std::vector<std::uint32_t>& capacities() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept;

  /// Maximum matching by Dinic max-flow on the §2.3 network. The round loop
  /// runs on CsrMatcher (cost-blind) or MinCostMatcher (zones); this solve
  /// is the from-scratch reference both are checked against.
  [[nodiscard]] MatchResult solve() const;

  /// When infeasible, extract a witness violating Lemma 1: a set X of requests
  /// with total demanded stripes |X| exceeding the capacity of B(X). Derived
  /// from the min-cut of the flow network. Empty optional when feasible.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>>
  infeasibility_witness() const;

 private:
  std::vector<std::uint32_t> capacity_;
  std::vector<std::vector<std::uint32_t>> candidates_;
};

}  // namespace p2pvod::flow
