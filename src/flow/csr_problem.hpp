// Mutable CSR candidate adjacency for the cost-blind round engine.
//
// Rebuilding a ConnectionProblem from scratch every round costs O(edges) of
// collection, sorting and deduplication even for requests whose candidate
// set did not change. CsrProblem is the persistent alternative: rows kept
// alive across rounds and edited surgically as cache grants arrive,
// retention windows expire (a round's expiries leave a row in one merge
// pass) and boxes churn. The round engine keeps one row per live swarm
// class, the requests of one stripe issued in one round: they share every
// source, so CsrMatcher reads the class's row for each of them (see
// sim/sparse_round.hpp).
//
// Each row stores its candidate boxes sorted and unique, paired with a
// *source count* — how many independent reasons (one static replica, each
// in-window cache entry) currently make the box a candidate. Counted
// membership is what makes delta maintenance exact: a cache entry expiring
// decrements one source, and the box leaves the row only when no source
// remains. All edits keep rows sorted, so iteration order — and therefore
// the augmenting-path exploration order of CsrMatcher — is deterministic.
//
// Rows live in one shared pool (structure-of-arrays: boxes and counts in
// parallel vectors). In-place edits shift within the row's capacity; growth
// beyond it relocates the row to the pool tail with slack (amortized O(1)
// per insert), and the pool compacts itself once more than half of it is
// abandoned spans. A cleared row keeps its span, so the next class on a
// recycled row refills it in place instead of relocating.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace p2pvod::flow {

class CsrProblem {
 public:
  CsrProblem() = default;

  /// Grow the row table so `row` is addressable; new rows are empty.
  void ensure_row(std::uint32_t row);
  /// Empty `row`. Its pool span is kept for the row's next use.
  void clear_row(std::uint32_t row);

  /// Replace `row`'s contents. `boxes` must be sorted unique and `counts`
  /// parallel to it with every entry >= 1.
  void assign_row(std::uint32_t row, std::span<const std::uint32_t> boxes,
                  std::span<const std::uint32_t> counts);

  /// Add one source of `box` to `row`: a sorted insert when absent, a count
  /// increment when already present. Returns true when `box` entered the
  /// row.
  bool add_source(std::uint32_t row, std::uint32_t box);

  /// Drop one source of `row` per entry of `boxes` (sorted ascending;
  /// repeats allowed, each occurrence one source) in one merge pass over the
  /// row. A box whose count runs out leaves the row. Occurrences beyond a
  /// box's count, and boxes not in the row, are tolerated no-ops: the row
  /// was rebuilt from scratch after the source was recorded, which already
  /// folded the removal in. Returns the number of boxes that left the row,
  /// and appends them, ascending, to `left` when it is non-null.
  std::uint32_t remove_sources(std::uint32_t row,
                               std::span<const std::uint32_t> boxes,
                               std::vector<std::uint32_t>* left = nullptr);

  /// Drop `box` from `row` entirely, whatever its count — every source it
  /// contributed died at once (the box went offline). Misses are no-ops.
  /// Returns true when `box` left the row.
  bool remove_box(std::uint32_t row, std::uint32_t box);

  [[nodiscard]] bool contains(std::uint32_t row, std::uint32_t box) const;
  /// Sorted unique candidate boxes of row `r`.
  [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t r) const;
  [[nodiscard]] std::uint32_t row_count() const noexcept {
    return static_cast<std::uint32_t>(rows_.size());
  }
  /// Stored (row, box) incidences over all rows.
  [[nodiscard]] std::uint64_t edge_count() const noexcept { return edges_; }
  /// Pool slots currently allocated (diagnostics; includes abandoned spans).
  [[nodiscard]] std::size_t pool_size() const noexcept { return boxes_.size(); }

 private:
  struct RowRef {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  /// Move `row`'s span to the pool tail with room for `capacity` entries.
  void relocate(std::uint32_t row, std::uint32_t capacity);
  void maybe_compact();
  /// Index of the first entry in `row` that is >= box (row-relative).
  [[nodiscard]] std::uint32_t lower_bound_in(const RowRef& ref,
                                             std::uint32_t box) const;

  std::vector<RowRef> rows_;
  std::vector<std::uint32_t> boxes_;   ///< shared pool; rows span into it
  std::vector<std::uint32_t> counts_;  ///< parallel to boxes_
  std::uint64_t edges_ = 0;            ///< sum of live row sizes
  std::uint64_t abandoned_ = 0;        ///< pool slots no live row spans
};

}  // namespace p2pvod::flow
