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
//   - the expiries CacheIndex::prune reports are consumed at the next solve,
//     batched by stripe: they are bucketed per stripe in O(k), and each
//     clean row of the stripe drops all of its eligible boxes (entry before
//     its issue, not its requester) in one merge pass
//     (CsrProblem::remove_sources), one source per expiry;
//   - box churn bulk-removes (offline) or re-adds (online) the box across
//     the rows of the stripes it stores/caches (the cache never reports an
//     entry that died with its box);
//   - request arrival marks its new row dirty; dirty rows are rebuilt from
//     ground truth at the next solve, in ascending slot order. Requests of
//     one stripe issued in the same round share every source except the
//     requester's own, so the collector (RowCollector) is called once per
//     (stripe, issue) group and returns the group's sources with no
//     requester excluded; the group row is sorted and run-length encoded
//     once, and each row is that group row minus its requester's run. When
//     the dirty fraction crosses a threshold the whole table is rebuilt
//     instead (patching would cost more than collecting).
//
// Invariant tying it together: a row's per-box source count always equals
// the number of ground-truth reasons the box can serve that request (static
// replica while online, plus each in-window cache entry with entry < issue).
// Every source is added exactly once (insert or rebuild) and retired exactly
// once (its reported expiry, an offline bulk-removal, or the row's rebuild
// folding it in), so rows never drift from what a from-scratch collection
// would produce — the equivalence the simulator's verify path asserts, row
// by row.
//
// The Hall witness of a stalled round (hall_witness) is read off the
// maximum matching the solve leaves. In the flow network of Lemma 1
// (source → box at capacity, box → request, request → sink) the nodes
// reachable from the source in the residual graph are the same for every
// maximum flow: the source side of the smallest minimum cut, the set Dinic's
// min_cut_source_side returns. On a matching they are the boxes with a spare
// slot, closed under "a request listing the box but not served by it → the
// box serving that request". X, the requests with no reachable candidate,
// is the Hall-violating set ConnectionProblem::infeasibility_witness
// extracts, found in O(E) without the dense problem.
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
  /// Ground-truth source collection for the requests of `stripe` issued at
  /// `issue`: the boxes Simulator::build_connection_problem collects before
  /// de-duplicating, with no requester excluded (each occurrence is one
  /// source). The engine drops each requester's own sources from its row.
  using RowCollector = std::function<void(
      model::StripeId stripe, model::Round issue, std::vector<model::BoxId>&)>;

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
  /// Sorted unique candidate boxes of `slot`'s row.
  [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t slot) const {
    return csr_.row(slot);
  }
  /// After a solve, the live slots of the Hall-violating set X (ascending):
  /// the requests none of whose candidates is reachable from a box with a
  /// spare slot (see the file comment); empty when every request is served.
  /// `capacity` is the one the solve used. Builds a box → rows index, so
  /// costs O(boxes + edges); meant for a stalled round.
  [[nodiscard]] std::vector<std::uint32_t> hall_witness(
      std::span<const std::uint32_t> capacity) const;
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
  /// A (stripe, issue) group of dirty rows: its collected row lives in
  /// group_boxes_/group_counts_ at [begin, begin + size).
  struct RowGroup {
    model::StripeId stripe = model::kInvalidStripe;
    model::Round issue = 0;
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t next = kNoGroup;  ///< next group of the same stripe
  };
  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

  void mark_dirty(std::uint32_t slot);
  void process_expiries(const std::vector<CacheExpiry>& expired);
  void rebuild_dirty(const RowCollector& collect);
  /// The group of (stripe, issue) in the rebuild pass, collected on first
  /// use.
  const RowGroup& row_group(model::StripeId stripe, model::Round issue,
                            const RowCollector& collect);

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

  /// Per stripe, during an expiry or rebuild pass: its expiry bucket or its
  /// first row group, else kNoGroup. Each pass resets what it set.
  std::vector<std::uint32_t> stripe_group_;

  // scratch reused across rounds
  std::vector<std::uint32_t> scratch_unassigned_;
  std::vector<CacheExpiry> bucketed_;          ///< expiries, stripe buckets
  std::vector<std::uint32_t> bucket_start_;    ///< per bucket, in bucketed_
  std::vector<RowGroup> groups_;
  std::vector<std::uint32_t> group_boxes_;
  std::vector<std::uint32_t> group_counts_;
  std::vector<model::BoxId> scratch_row_;
  std::vector<std::uint32_t> scratch_boxes_;
  std::vector<std::uint32_t> scratch_counts_;
};

}  // namespace p2pvod::sim
