// The cost-blind round engine: cross-round candidate index + incremental
// matching repair.
//
// Rebuilding every request's candidate list every round (collect, sort,
// unique) and re-deriving the matching costs O(live requests) even when
// nothing changed. SparseRoundState instead owns a flow::CsrProblem whose
// rows persist across rounds and a flow::CsrMatcher whose matching persists
// across rounds, and maintains both by deltas:
//
//   - a cache grant point-inserts one source into the live rows of its
//     stripe;
//   - an expiry decrements one source per affected row; the expiries are
//     the ones CacheIndex::prune reports, consumed at the next solve;
//   - box churn bulk-removes (offline) or re-adds (online) the box across
//     the rows of the stripes it stores/caches (the cache never reports an
//     entry that died with its box);
//   - request arrival marks its new row dirty; dirty rows are rebuilt from
//     ground truth (the collector callback) at the next solve. When the
//     dirty fraction crosses a threshold the whole table is rebuilt instead
//     (patching would cost more than collecting).
//
// Invariant tying it together: a row's per-box source count always equals
// the number of ground-truth reasons the box can serve that request (static
// replica while online, plus each in-window cache entry with entry < issue).
// Every source is added exactly once (insert or rebuild) and retired exactly
// once (its reported expiry, an offline bulk-removal, or the row's rebuild
// folding it in), so rows never drift from what a from-scratch collection
// would produce — the equivalence the simulator's verify path asserts.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "flow/csr_matcher.hpp"
#include "flow/csr_problem.hpp"
#include "model/ids.hpp"
#include "sim/cache.hpp"

namespace p2pvod::sim {

/// Cumulative work counters of the CSR engine. The simulator copies them
/// into its RunReport after each solve, and publishes its obs metrics from
/// there.
struct SparseStats {
  std::uint64_t rows_built = 0;     ///< rows collected from ground truth
  std::uint64_t row_patches = 0;    ///< surgical source inserts/removals
  /// Cache expiries consumed; entries that died with their box are not
  /// among them (the cache never reports those).
  std::uint64_t expiry_events = 0;
  std::uint64_t full_rebuilds = 0;  ///< dirty-fraction fallback trips
  std::uint64_t kept_connections = 0;
  std::uint64_t new_connections = 0;
};

class SparseRoundState {
 public:
  /// Ground-truth candidate collection for one request: the boxes
  /// Simulator::build_connection_problem collects before de-duplicating
  /// (each occurrence is one source).
  using RowCollector =
      std::function<void(model::StripeId stripe, model::Round issue,
                         model::BoxId requester, std::vector<model::BoxId>&)>;

  SparseRoundState(std::uint32_t box_count, std::uint32_t stripe_count,
                   double rebuild_fraction);

  /// Register a new live request; returns its slot id (slots are recycled).
  std::uint32_t add_request(model::StripeId stripe, model::Round issue,
                            model::BoxId requester);
  /// Retire a live request: drops its assignment and row.
  void remove_request(std::uint32_t slot);

  /// A cache grant was registered: patch the live rows of `stripe` issued
  /// after `entry`. Returns at once when no row added for the stripe was.
  void on_grant(model::StripeId stripe, model::BoxId box, model::Round entry);
  /// `box` went offline: its assignments dissolve and it leaves every row of
  /// the stripes it held statically (`stored`) or served from cache
  /// (`cached`).
  void on_box_offline(model::BoxId box,
                      std::span<const model::StripeId> stored,
                      std::span<const model::StripeId> cached);
  /// `box` came back: its static replicas serve again (cache died with it).
  void on_box_online(model::BoxId box,
                     std::span<const model::StripeId> stored);

  /// Run one round: consume `expired` (the cache expiries reported since
  /// the last solve, in report order; cleared on return), rebuild dirty rows
  /// via `collect`, then augment every unmatched live slot. Returns the
  /// number of served requests (a maximum matching, equal to a from-scratch
  /// solve).
  std::uint32_t solve(std::vector<CacheExpiry>& expired,
                      const std::vector<std::uint32_t>& capacity,
                      const RowCollector& collect);

  /// Box serving `slot` after the last solve, or -1.
  [[nodiscard]] std::int32_t assignment(std::uint32_t slot) const {
    return matcher_.assignment(slot);
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return csr_.edge_count();
  }
  [[nodiscard]] std::uint32_t live_rows() const noexcept {
    return live_count_;
  }
  [[nodiscard]] const SparseStats& stats() const noexcept { return stats_; }

 private:
  struct Slot {
    model::StripeId stripe = model::kInvalidStripe;
    model::Round issue = 0;
    model::BoxId requester = model::kInvalidBox;
    std::uint32_t stripe_pos = 0;  ///< index in slots_of_stripe_[stripe]
    bool live = false;
    bool dirty = false;
  };
  void mark_dirty(std::uint32_t slot);
  void rebuild_row(std::uint32_t slot, const RowCollector& collect);
  void process_expiries(const std::vector<CacheExpiry>& expired);

  flow::CsrProblem csr_;
  flow::CsrMatcher matcher_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<std::uint32_t>> slots_of_stripe_;
  /// Per stripe, the latest issue round of any request added: a bound on
  /// the issue round of its live rows.
  std::vector<model::Round> latest_issue_;
  std::vector<std::uint32_t> dirty_slots_;  ///< queue; flags de-dup entries
  std::uint32_t dirty_count_ = 0;
  double rebuild_fraction_;
  std::uint32_t live_count_ = 0;
  SparseStats stats_;

  // scratch reused across rounds
  std::vector<std::uint32_t> scratch_unassigned_;
  std::vector<model::BoxId> scratch_row_;
  std::vector<std::uint32_t> scratch_boxes_;
  std::vector<std::uint32_t> scratch_counts_;
};

}  // namespace p2pvod::sim
