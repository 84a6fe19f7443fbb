// The cost-blind round engine: cross-round candidate index + incremental
// matching repair.
//
// Rebuilding every request's candidate list every round (collect, sort,
// unique) and re-deriving the matching costs O(live requests) even when
// nothing changed. SparseRoundState instead owns a flow::CsrProblem whose
// rows persist across rounds and a flow::CsrMatcher whose matching persists
// across rounds, and maintains both by deltas.
//
// A row belongs to a swarm class, not to a request. By the §2.2
// availability rule every request for stripe s issued at round t has the
// same sources: the online static holders of s plus the in-window cache
// entries of s entered before t. So the live requests of one (stripe,
// issue) form a class with one sorted, source-counted row that holds every
// source, requesters included. The row is collected from ground truth
// (RowCollector) once, at the first solve after the class's first request
// arrives, and dropped with its last request; requests that join a built
// class read its row as it stands. Deltas patch classes:
//
//   - a cache grant point-inserts one source into the classes of its stripe
//     issued after the entry;
//   - the expiries CacheIndex::prune reports are consumed at the next solve,
//     batched by stripe: they are bucketed per stripe in O(k), and each built
//     class of the stripe drops its eligible boxes (entry before its issue)
//     in one merge pass (CsrProblem::remove_sources), one source per expiry;
//   - box churn bulk-removes (offline) or re-adds (online) the box across
//     the classes of the stripes it stores/caches (the cache never reports
//     an entry that died with its box).
//
// The matching stays per request. The matcher reads each request's class
// row through a slot → row index and skips the request's own requester,
// which can be a source of its own class (a §4 relay re-requesting a stripe
// it caches): a request's candidates are its class row minus its requester,
// exactly what Simulator::build_connection_problem collects for it.
// edge_count() counts those per-request candidates, Σ members × row length
// minus the members whose requester is in their own row.
//
// A solve's matching work is in proportion to what changed, not to the
// live requests: it visits only the slots marked as possibly unmatched (new
// requests, the servings a leaving box dropped, and last round's failed
// augments), in ascending slot order, and reads the kept connections off
// the matcher's count of assigned slots.
//
// Invariant tying it together: a class row's per-box source count always
// equals the number of ground-truth reasons the box can serve the class
// (static replica while online, plus each in-window cache entry with
// entry < issue). Every source is added exactly once (insert or build) and
// retired exactly once (its reported expiry or an offline bulk-removal), so
// rows never drift from what a from-scratch collection would produce — the
// equivalence the simulator's verify path asserts, request by request.
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
  std::uint64_t rows_built = 0;     ///< class rows collected from ground truth
  std::uint64_t row_patches = 0;    ///< surgical source inserts/removals
  /// Cache expiries consumed; entries that died with their box are not
  /// among them (the cache never reports those).
  std::uint64_t expiry_events = 0;
  std::uint64_t kept_connections = 0;
  std::uint64_t new_connections = 0;
};

class SparseRoundState {
 public:
  /// Ground-truth source collection for the requests of `stripe` issued at
  /// `issue`: the boxes Simulator::build_connection_problem collects before
  /// de-duplicating, with no requester excluded (each occurrence is one
  /// source).
  using RowCollector = std::function<void(
      model::StripeId stripe, model::Round issue, std::vector<model::BoxId>&)>;

  SparseRoundState(std::uint32_t box_count, std::uint32_t stripe_count) {
    reset(box_count, stripe_count);
  }

  /// Drop every request, class, row and connection and re-size for
  /// `box_count` boxes and `stripe_count` stripes, as constructed: no slot,
  /// class or free-list entry is left, so slot and row ids restart at 0, and
  /// the counters read 0. Every table keeps its storage.
  void reset(std::uint32_t box_count, std::uint32_t stripe_count);

  /// Register a new live request; returns its slot id (slots are recycled).
  std::uint32_t add_request(model::StripeId stripe, model::Round issue,
                            model::BoxId requester);
  /// Retire a live request: drops its assignment, and its class with the
  /// class's last request.
  void remove_request(std::uint32_t slot);

  /// A cache grant was registered: patch the classes of `stripe` issued
  /// after `entry`. Returns at once when no request added for the stripe
  /// was.
  void on_grant(model::StripeId stripe, model::BoxId box, model::Round entry);
  /// `box` went offline: its assignments dissolve and it leaves every class
  /// of the stripes it held statically (`stored`) or served from cache
  /// (`cached`).
  void on_box_offline(model::BoxId box,
                      std::span<const model::StripeId> stored,
                      std::span<const model::StripeId> cached);
  /// `box` came back: its static replicas serve again (cache died with it).
  void on_box_online(model::BoxId box,
                     std::span<const model::StripeId> stored);

  /// Run one round: consume `expired` (the cache expiries reported since
  /// the last solve, in report order; cleared on return), build the rows of
  /// new classes via `collect`, then augment every unmatched live slot, in
  /// ascending slot order. It visits only the slots marked as possibly
  /// unmatched (see maybe_unmatched_), not every live one. Returns the
  /// number of served requests (a maximum matching, equal to a from-scratch
  /// solve).
  std::uint32_t solve(std::vector<CacheExpiry>& expired,
                      const std::vector<std::uint32_t>& capacity,
                      const RowCollector& collect);

  /// Box serving `slot` after the last solve, or -1.
  [[nodiscard]] std::int32_t assignment(std::uint32_t slot) const {
    return matcher_.assignment(slot);
  }
  /// Sorted unique candidate boxes of `slot`: its class row minus its
  /// requester.
  [[nodiscard]] std::vector<std::uint32_t> row(std::uint32_t slot) const;
  /// After a solve, the live slots of the Hall-violating set X (ascending):
  /// the requests none of whose candidates is reachable from a box with a
  /// spare slot (see the file comment); empty when every request is served.
  /// `capacity` is the one the solve used. Builds a box → classes index, so
  /// costs O(boxes + edges); meant for a stalled round.
  [[nodiscard]] std::vector<std::uint32_t> hall_witness(
      std::span<const std::uint32_t> capacity) const;
  /// Candidate edges over the live requests of built classes: Σ members ×
  /// row length, minus the members whose requester is in their own row.
  [[nodiscard]] std::uint64_t edge_count() const noexcept { return edges_; }
  [[nodiscard]] std::uint32_t live_rows() const noexcept {
    return live_count_;
  }
  [[nodiscard]] const SparseStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Links of an intrusive doubly linked list of record ids.
  struct Link {
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
  };
  struct Slot {
    std::uint32_t cls = kNone;  ///< its swarm class, also its CSR row
    model::BoxId requester = model::kInvalidBox;
    Link member;   ///< in its class's member list
    Link request;  ///< in its requester's list of live requests
    bool live = false;
    /// The requester is a source of its own built class row.
    bool self = false;
  };
  /// A live (stripe, issue). Its index in classes_ is its CSR row, which
  /// its members share.
  struct SwarmClass {
    model::StripeId stripe = model::kInvalidStripe;
    model::Round issue = 0;
    Link peers;  ///< in its stripe's class list
    std::uint32_t first_member = kNone;
    std::uint32_t members = 0;
    bool live = false;
    bool dirty = false;  ///< row not built yet; queued in dirty_classes_
  };

  template <typename Record>
  static void link(std::vector<Record>& records, Link Record::*list,
                   std::uint32_t& head, std::uint32_t id);
  template <typename Record>
  static void unlink(std::vector<Record>& records, Link Record::*list,
                     std::uint32_t& head, std::uint32_t id);
  std::uint32_t class_of(model::StripeId stripe, model::Round issue);
  void drop_class(std::uint32_t cls);
  /// `box` entered or left class `cls`'s row: every member but those it
  /// requests for gains or loses a candidate, and a member it served loses
  /// its server (and is marked).
  void box_entered(std::uint32_t cls, model::BoxId box);
  void box_left(std::uint32_t cls, model::BoxId box);
  /// Members of `cls` requested by `box`, their `self` flags set to `self`.
  std::uint32_t own_requests(std::uint32_t cls, model::BoxId box, bool self);
  void process_expiries(const std::vector<CacheExpiry>& expired);
  void build_classes(const RowCollector& collect);

  void mark_unmatched(std::uint32_t slot) {
    maybe_unmatched_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }

  flow::CsrProblem csr_;
  flow::CsrMatcher matcher_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// One bit per slot, set for every live slot that is unassigned: by
  /// add_request, by each unassignment a box leaving causes, and kept by a
  /// failed augment. solve() clears the bits of the slots it serves and of
  /// dead ones; a retired slot's bit may linger until solve() or reuse.
  std::vector<std::uint64_t> maybe_unmatched_;
  std::vector<SwarmClass> classes_;
  std::vector<std::uint32_t> free_classes_;
  /// Per stripe, the first of its live classes (the newest), or kNone.
  std::vector<std::uint32_t> first_class_of_;
  /// Per box, the first of its live requests, or kNone.
  std::vector<std::uint32_t> first_request_of_;
  /// Per stripe, the latest issue round of any request added: a bound on
  /// the issue round of its live classes.
  std::vector<model::Round> latest_issue_;
  std::vector<std::uint32_t> dirty_classes_;  ///< queue; flags de-dup
  std::uint32_t live_count_ = 0;
  std::uint64_t edges_ = 0;
  SparseStats stats_;

  // scratch reused across rounds
  std::vector<std::uint32_t> stripe_bucket_;  ///< per stripe, or kNone
  std::vector<CacheExpiry> bucketed_;         ///< expiries, stripe buckets
  std::vector<std::uint32_t> bucket_start_;   ///< per bucket, in bucketed_
  std::vector<model::BoxId> scratch_row_;
  std::vector<std::uint32_t> scratch_boxes_;
  std::vector<std::uint32_t> scratch_counts_;
  std::vector<std::uint32_t> scratch_left_;
  std::vector<std::uint32_t> scratch_unassigned_;
};

}  // namespace p2pvod::sim
