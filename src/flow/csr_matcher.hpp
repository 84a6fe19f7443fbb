// Incremental b-matching repair over a CsrProblem.
//
// The cost-blind round engine's matcher. Re-deriving the assignment every
// round and clearing an O(box_count) visited array per augmentation is fine
// at workshop n and quadratic poison at a million boxes, so CsrMatcher keeps
// the matching itself alive across rounds: retiring requests unassign their
// slot, churned boxes bulk-unassign everything they served, and each round
// only the currently unmatched slots seed augmenting paths.
//
// Three ingredients keep an augmentation short and O(edges explored):
//   - a free-slot look-ahead: each row the search enters takes its first
//     free candidate before any of its servings is displaced. Descending
//     into the first saturated candidate instead cost an augment of the u = 1
//     threshold_trials benchmark 38.5 rows entered and 965 candidates read on
//     average, against 2.3 and 42 with the look-ahead;
//   - visited marks are epoch stamps (one uint32 per box, bumped per call),
//     so there is no per-call O(n) clear;
//   - the alternating-path search is an explicit frame stack, not recursion,
//     so a million-deep path cannot smash the C++ stack.
//
// Starting from any valid partial matching, exhaustively augmenting every
// unmatched slot yields a maximum matching (Berge), so the sparse round
// serves exactly as many requests as a from-scratch solve — the equivalence
// the simulator's verify path checks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/csr_problem.hpp"

namespace p2pvod::flow {

class CsrMatcher {
 public:
  explicit CsrMatcher(std::uint32_t box_count);

  /// Grow the slot table so slots [0, rows) are addressable.
  void ensure_rows(std::uint32_t rows);

  /// Box serving `row`, or -1.
  [[nodiscard]] std::int32_t assignment(std::uint32_t row) const {
    return assignment_.at(row);
  }
  /// Connections currently served by `box`.
  [[nodiscard]] std::uint32_t degree(std::uint32_t box) const {
    return degree_.at(box);
  }

  /// Drop `row`'s assignment (request retired, or its server left the row).
  void unassign(std::uint32_t row);

  /// Drop every connection `box` serves (it went offline). The affected rows
  /// are appended to `out` so the caller can re-augment them.
  void unassign_box(std::uint32_t box, std::vector<std::uint32_t>& out);

  /// Find an augmenting path from unmatched `row` and apply it. Capacity is
  /// indexed by box id; candidate rows come from `csr`. A row the search
  /// enters takes its first free candidate; when all are saturated, the rows
  /// they serve are tried for displacement depth-first, each box once.
  /// Returns true when `row` ends up served (every displaced row stays
  /// served); a failed search changes nothing.
  bool augment(const CsrProblem& csr, std::span<const std::uint32_t> capacity,
               std::uint32_t row);

 private:
  struct Frame {
    std::uint32_t row;  ///< request slot this frame tries to serve
    std::uint32_t ci;   ///< index into the row's candidate list
    std::uint32_t si;   ///< index into served_by_[candidate] when descending
    bool in_box;        ///< true while iterating the candidate's servings
  };

  void next_epoch();

  std::vector<std::int32_t> assignment_;           ///< per slot, -1 = free
  std::vector<std::uint32_t> degree_;              ///< per box
  std::vector<std::vector<std::uint32_t>> served_by_;  ///< per box: slots
  std::vector<std::uint32_t> visit_mark_;          ///< per box, epoch stamp
  std::uint32_t epoch_ = 0;
  std::vector<Frame> stack_;  ///< reused across augment calls
};

}  // namespace p2pvod::flow
