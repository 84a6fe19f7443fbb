// Incremental b-matching repair over a CsrProblem.
//
// The cost-blind round engine's matcher. Re-deriving the assignment every
// round and clearing an O(box_count) visited array per augmentation is fine
// at workshop n and quadratic poison at a million boxes, so CsrMatcher keeps
// the matching itself alive across rounds: retiring requests unassign their
// slot, churned boxes bulk-unassign everything they served, and each round
// only the currently unmatched slots seed augmenting paths.
//
// A slot reads its candidates from a CSR row through a slot → row index, so
// slots that share every source share one row (the round engine binds each
// request to its swarm class's row). A shared row may list a slot's own
// requester, which cannot serve itself: each slot skips one box, in the
// look-ahead and in the search alike, and so sees exactly the row minus that
// box in the row's sorted order.
//
// Three ingredients keep an augmentation short and O(edges explored):
//   - a free-slot look-ahead: each row the search enters takes its first
//     free candidate before any of its servings is displaced. Descending
//     into the first saturated candidate instead cost an augment of the u = 1
//     threshold_trials benchmark 38.5 rows entered and 965 candidates read on
//     average, against 2.3 and 42 with the look-ahead. Within a pass (see
//     begin_pass) each row keeps a cursor past its saturated prefix, so the
//     slots sharing a row do not each rescan it;
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
  /// A skip that matches no box.
  static constexpr std::uint32_t kNoSkip = 0xFFFFFFFFu;

  CsrMatcher() = default;
  explicit CsrMatcher(std::uint32_t box_count) { reset(box_count); }

  /// Drop every slot and connection and re-size for `box_count` boxes, as
  /// constructed. Each box's list of servings is cleared, not freed, so a
  /// matcher reused for another run serves as many slots per box as before
  /// without going back to the heap.
  void reset(std::uint32_t box_count);

  /// Grow the slot table so slots [0, rows) are addressable. A new slot
  /// reads the CSR row of its own id and skips no box until bound.
  void ensure_rows(std::uint32_t rows);

  /// Slot `slot` reads CSR row `row`, minus `skip` (its own requester, or
  /// kNoSkip). The slot must be unassigned.
  void bind(std::uint32_t slot, std::uint32_t row, std::uint32_t skip);

  /// Box serving `row`, or -1.
  [[nodiscard]] std::int32_t assignment(std::uint32_t row) const {
    return assignment_.at(row);
  }
  /// Connections currently served by `box`.
  [[nodiscard]] std::uint32_t degree(std::uint32_t box) const {
    return degree_.at(box);
  }
  /// The slots `box` serves.
  [[nodiscard]] std::span<const std::uint32_t> servings(
      std::uint32_t box) const {
    return served_by_.at(box);
  }

  /// Drop `row`'s assignment (request retired, or its server left the row).
  void unassign(std::uint32_t row);

  /// Drop every connection `box` serves (it went offline). The affected rows
  /// are appended to `out` so the caller can re-augment them.
  void unassign_box(std::uint32_t box, std::vector<std::uint32_t>& out);

  /// Open a pass of augment calls over rows and capacities that do not
  /// change until the pass ends. No degree falls within a pass, so a row
  /// prefix found saturated stays saturated: the look-ahead of every slot
  /// reading the row starts past it, and picks the same box a scan from the
  /// start would. Dropping a connection ends the pass, as does end_pass().
  void begin_pass();
  void end_pass() noexcept { in_pass_ = false; }

  /// Find an augmenting path from unmatched slot `row` and apply it.
  /// Capacity is indexed by box id; candidate rows come from `csr`. A slot
  /// the search enters takes its first free candidate; when all are
  /// saturated, the slots they serve are tried for displacement depth-first,
  /// each box once. Returns true when `row` ends up served (every displaced
  /// slot stays served); a failed search changes nothing.
  bool augment(const CsrProblem& csr, std::span<const std::uint32_t> capacity,
               std::uint32_t row);

 private:
  struct Frame {
    std::uint32_t slot;  ///< request slot this frame tries to serve
    std::uint32_t row;   ///< the CSR row it reads
    std::uint32_t ci;    ///< index into the row's candidate list
    std::uint32_t si;    ///< index into served_by_[candidate] when descending
    bool in_box;         ///< true while iterating the candidate's servings
  };

  void next_epoch();
  /// Size the per-row cursor arrays to hold `row`.
  void ensure_cursor(std::uint32_t row);

  std::vector<std::int32_t> assignment_;           ///< per slot, -1 = free
  std::vector<std::uint32_t> row_of_;              ///< per slot: its CSR row
  std::vector<std::uint32_t> skip_;                ///< per slot: box skipped
  std::vector<std::uint32_t> degree_;              ///< per box
  std::vector<std::vector<std::uint32_t>> served_by_;  ///< per box: slots
  std::vector<std::uint32_t> visit_mark_;          ///< per box, epoch stamp
  std::uint32_t epoch_ = 0;
  /// Per CSR row: every box before index cursor_ is saturated, valid while
  /// cursor_pass_ equals pass_ and a pass is open.
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> cursor_pass_;
  std::uint32_t pass_ = 0;
  bool in_pass_ = false;
  std::vector<Frame> stack_;  ///< reused across augment calls
};

}  // namespace p2pvod::flow
