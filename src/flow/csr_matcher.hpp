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
// Each box's servings form an intrusive doubly linked list over the slots
// (per-slot prev/next links, per-box head and tail), so dropping one
// connection is O(1) and serving more rows than ever before allocates
// nothing. The list keeps the order a vector would: a new serving appends at
// the tail, a displacement puts the parent in its child's place, a removal
// keeps the others in order. The search reads a box's servings in that
// order, so the matching does not depend on how the lists are stored.
//
// The two augment metrics (flow/csr_augments, flow/csr_augment_depth) are
// tallied in the matcher, a count and a small per-depth array, and
// published once per pass: at end_pass(), or when a dropped connection or
// reset() ends the pass. An augment outside a pass publishes at once. The
// totals are those of publishing every call, one atomic add per metric
// and depth instead of three per call.
//
// Starting from any valid partial matching, exhaustively augmenting every
// unmatched slot yields a maximum matching (Berge), so the sparse round
// serves exactly as many requests as a from-scratch solve — the equivalence
// the simulator's verify path checks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/csr_problem.hpp"

namespace p2pvod::flow {

class CsrMatcher {
 public:
  /// A skip that matches no box.
  static constexpr std::uint32_t kNoSkip = 0xFFFFFFFFu;
  /// The end of a serving list.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  CsrMatcher() = default;
  explicit CsrMatcher(std::uint32_t box_count) { reset(box_count); }

  /// Drop every slot and connection and re-size for `box_count` boxes, as
  /// constructed, after publishing the open pass's tallies. Every table
  /// keeps its storage.
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
  /// Slots currently assigned, over all boxes.
  [[nodiscard]] std::uint64_t assigned() const noexcept { return assigned_; }
  /// The first slot `box` serves, or kNoSlot. With next_serving, walks the
  /// box's servings in list order; unassigning the slot just read does not
  /// change its next_serving.
  [[nodiscard]] std::uint32_t first_serving(std::uint32_t box) const {
    return head_.at(box);
  }
  /// The slot after `slot` in its server's list, or kNoSlot. `slot` must be
  /// assigned.
  [[nodiscard]] std::uint32_t next_serving(std::uint32_t slot) const {
    return links_[slot].next;
  }

  /// Drop `row`'s assignment (request retired, or its server left the row).
  void unassign(std::uint32_t row);

  /// Drop every connection `box` serves (it went offline). The affected rows
  /// are appended to `out`, in list order, so the caller can re-augment
  /// them.
  void unassign_box(std::uint32_t box, std::vector<std::uint32_t>& out);

  /// Open a pass of augment calls over rows and capacities that do not
  /// change until the pass ends. No degree falls within a pass, so a row
  /// prefix found saturated stays saturated: the look-ahead of every slot
  /// reading the row starts past it, and picks the same box a scan from the
  /// start would. Dropping a connection ends the pass, as does end_pass();
  /// either publishes the pass's augment tallies.
  void begin_pass();
  void end_pass() { close_pass(); }

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
    std::uint32_t cur;   ///< the serving of row[ci] being tried, when in_box
    bool in_box;         ///< true while iterating the candidate's servings
  };
  /// A slot's neighbours in its server's serving list.
  struct Link {
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
  };
  /// Depths below this are tallied per pass; deeper ones, rare, are
  /// observed at once.
  static constexpr std::size_t kTalliedDepths = 32;

  void next_epoch();
  /// Size the per-row cursor arrays to hold `row`.
  void ensure_cursor(std::uint32_t row);
  /// Append `slot` to `box`'s servings.
  void link_tail(std::uint32_t box, std::uint32_t slot);
  /// Put `slot` in `old`'s place in `box`'s servings.
  void replace(std::uint32_t box, std::uint32_t old, std::uint32_t slot);
  /// Remove `slot` from `box`'s servings.
  void unlink(std::uint32_t box, std::uint32_t slot);
  /// End any open pass and publish the pending augment tallies.
  void close_pass();
  void publish_tallies();

  std::vector<std::int32_t> assignment_;           ///< per slot, -1 = free
  std::vector<std::uint32_t> row_of_;              ///< per slot: its CSR row
  std::vector<std::uint32_t> skip_;                ///< per slot: box skipped
  std::vector<Link> links_;  ///< per slot, valid while assigned
  std::vector<std::uint32_t> degree_;              ///< per box
  std::vector<std::uint32_t> head_;                ///< per box, or kNoSlot
  std::vector<std::uint32_t> tail_;                ///< per box, or kNoSlot
  std::uint64_t assigned_ = 0;
  std::vector<std::uint32_t> visit_mark_;          ///< per box, epoch stamp
  std::uint32_t epoch_ = 0;
  /// Per CSR row: every box before index cursor_ is saturated, valid while
  /// cursor_pass_ equals pass_ and a pass is open.
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> cursor_pass_;
  std::uint32_t pass_ = 0;
  bool in_pass_ = false;
  std::vector<Frame> stack_;  ///< reused across augment calls
  /// Augment calls and their depths not yet published.
  std::uint64_t pending_calls_ = 0;
  std::array<std::uint64_t, kTalliedDepths> pending_depths_{};
};

}  // namespace p2pvod::flow
