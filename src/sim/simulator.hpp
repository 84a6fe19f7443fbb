// The round-based fully-distributed VoD simulator (DESIGN.md S5).
//
// One step() is one time round of the paper's model (§1.1): demands arrive,
// the request strategy turns them into stripe requests, and a connection
// matching (Lemma 1) is computed over all active requests — every active
// request must receive its current chunk from a box possessing it (static
// replica or playback cache), with box b serving at most ⌊u_b c⌋ stripe
// connections. In strict mode an unserved request ends the run: the demand
// sequence defeated the allocation.
//
// Round pipeline (at round t):
//   1. sessions ending at t release their boxes and leave their swarms
//   2. swarm sizes are frozen (the f(t) of the growth rule)
//   3. demands are admitted (busy boxes reject; one video per box)
//   4. the strategy plans requests; cache grants are registered
//   5. requests issued at t activate; expired cache entries are pruned
//   6. the connection matching is solved; chunks are accounted
//   7. requests that received their last chunk retire
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocation.hpp"
#include "flow/bipartite.hpp"
#include "flow/min_cost.hpp"
#include "model/capacity.hpp"
#include "net/topology.hpp"
#include "model/catalog.hpp"
#include "model/ids.hpp"
#include "sim/cache.hpp"
#include "sim/calendar.hpp"
#include "sim/report.hpp"
#include "sim/request.hpp"
#include "sim/sparse_round.hpp"
#include "sim/strategy.hpp"
#include "sim/swarm.hpp"

namespace p2pvod::workload {
class DemandGenerator;
}  // namespace p2pvod::workload

namespace p2pvod::sim {

/// A user demand: box wants to play video. Demands arriving at round t are
/// the paper's "demand during [t-1, t[" — the strategy reacts at t.
struct Demand {
  model::BoxId box;
  model::VideoId video;
};

struct SimulatorOptions {
  /// Cross-check every CSR round against the Dinic oracle on the round's
  /// dense ConnectionProblem, rebuilt from ground truth: every CSR row must
  /// hold exactly its request's candidates, the assignment must be
  /// structurally valid and serve as many requests as the oracle, and the
  /// first stall's Hall witness must be the dense min cut's (tests;
  /// expensive).
  bool verify_incremental = false;
  /// Stop at the first unserved request (the paper's feasibility semantics).
  /// When false, stalls are counted and positions advance (continuity metric).
  bool strict = true;
  /// Per-box upload override in stripe slots (hetero relay reserves upload);
  /// empty = ⌊u_b c⌋ from the capacity profile.
  std::vector<std::uint32_t> capacity_override;
  /// Zone topology (not owned; must outlive the simulator). It picks the
  /// round engine. Without one, rounds run on the cost-blind CSR engine: a
  /// persistent candidate adjacency patched by deltas and last round's
  /// matching repaired from the unmatched slots only (a maximum matching,
  /// like a from-scratch solve). With one, each round's dense problem is
  /// solved from scratch for the minimum total zone-pair cost among maximum
  /// matchings (flow/min_cost), cross-zone traffic is accounted in
  /// RunReport, and link caps, when present, admission-control per-zone-pair
  /// connections.
  const net::Topology* topology = nullptr;
  /// Inert: the topology picks the engine. Setting it together with a
  /// topology throws std::invalid_argument (the CSR engine is cost-blind).
  bool sparse = false;
};

class Simulator {
 public:
  /// The catalog, profile, allocation and strategy are not owned: they must
  /// outlive the simulator. Construction is reset() on new buffers.
  Simulator(const model::Catalog& catalog,
            const model::CapacityProfile& profile,
            const alloc::Allocation& allocation, RequestStrategy& strategy,
            SimulatorOptions options = {});

  /// Return to round 0 exactly as constructed. It re-reads the catalog,
  /// profile and allocation the simulator references, which may have been
  /// assigned new values since, of other sizes, and its options. Every
  /// session, request, cache entry, swarm, CSR row and connection is
  /// dropped, and the report and the baseline publish() adds the obs
  /// metrics from start over: a run after reset() does, counts and
  /// publishes exactly what the same run on a new simulator would. Every
  /// buffer keeps its storage, so a simulator reused for runs of similar
  /// size makes almost no heap allocations. Throws what the constructor
  /// throws for inputs that do not fit together; after a throw, use the
  /// simulator again only once a reset() has succeeded.
  void reset();

  /// Advance one round with the given demands. No-op once stalled in strict
  /// mode.
  void step(const std::vector<Demand>& demands);

  /// Churn extension: take a box offline or bring it back.
  ///
  /// Going offline models a crash: the box's upload capacity drops to zero,
  /// its static replicas and cached data become unreachable, every playback
  /// it was watching is aborted, and — relay case — every session it was
  /// forwarding for is aborted too (the §4 reserved channel dies with it).
  /// Coming back restores capacity and static storage; the playback cache is
  /// gone (it was volatile state).
  void set_box_online(model::BoxId box, bool online);
  [[nodiscard]] bool box_online(model::BoxId box) const {
    return online_.at(box) != 0;
  }

  /// Drive `rounds` rounds pulling demands from `generator`; returns the
  /// final report (also kept, see report()).
  RunReport run(workload::DemandGenerator& generator, model::Round rounds);

  // --- queries (used by strategies, workloads, tests) ---
  [[nodiscard]] model::Round now() const noexcept { return now_; }
  [[nodiscard]] const model::Catalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] const model::CapacityProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const alloc::Allocation& allocation() const noexcept {
    return allocation_;
  }
  [[nodiscard]] const SwarmRegistry& swarms() const noexcept {
    return swarms_;
  }
  /// Online and not busy with a session; throws std::out_of_range for an
  /// unknown box.
  [[nodiscard]] bool box_idle(model::BoxId b) const {
    return online_.at(b) != 0 && now_ >= busy_until_.at(b);
  }
  /// Replace the contents of `out` with the ids of the idle boxes, ascending
  /// (the box_idle() set). Demand generators call it once per round: one
  /// branch-free pass over the boxes, into a buffer the caller reuses.
  void idle_boxes(std::vector<model::BoxId>& out) const;
  [[nodiscard]] bool stalled() const noexcept { return stalled_; }
  [[nodiscard]] std::uint32_t active_request_count() const noexcept {
    return static_cast<std::uint32_t>(live_.size());
  }
  [[nodiscard]] const RunReport& report() const noexcept { return report_; }
  [[nodiscard]] std::uint32_t capacity_slots(model::BoxId b) const {
    return capacity_slots_.at(b);
  }
  [[nodiscard]] std::uint64_t total_capacity_slots() const noexcept {
    return total_capacity_slots_;
  }
  /// True when rounds run on the CSR engine (no topology attached).
  [[nodiscard]] bool sparse_active() const noexcept {
    return sparse_ != nullptr;
  }

 private:
  /// One admitted playback. Its record lives from admission until nothing
  /// can name its id: its end event has fired and no live or pending request
  /// refers to it. `refs` counts those names, one per request not yet
  /// retired plus one for the end event; whichever drops it to zero releases
  /// the record, and the next admission reuses the id. A request may retire
  /// after the end event (a relay's plan can outlast the viewer's playback),
  /// and an abort drops the session's requests at once, so its end event
  /// releases it. The table thus holds the live sessions, not every session
  /// the run admitted.
  struct Session {
    /// Admission order, unique within a run (ids are reused, serials not).
    std::uint64_t serial;
    model::Round ends;  ///< first round the box is idle again
    model::BoxId box;
    model::VideoId video;
    std::uint32_t refs;
    bool aborted;  ///< killed by churn; the end event only releases it
  };

  /// A planned network request waiting for its issue round.
  struct PendingRequest {
    model::StripeId stripe;
    model::Round issue;
    model::BoxId requester;
    SessionId session;
  };

  void admit(const Demand& demand);
  void activate_pending();
  void solve_round();
  /// CSR engine: patch-and-repair round on the persistent CSR state.
  /// Returns requests served.
  std::uint32_t solve_round_sparse();
  /// Zone-aware engine (topology set): build the round's dense
  /// ConnectionProblem, min-cost solve, link-cap admission control,
  /// cross-zone accounting. Returns requests served.
  std::uint32_t solve_round_zone_aware();
  /// The round's dense ConnectionProblem, collected from ground truth (also
  /// the reference the CSR verify path validates against).
  [[nodiscard]] flow::ConnectionProblem build_connection_problem();
  /// Hall-violating witness for the first stall (runs once per run at
  /// most): read off the CSR matching, or the dense min cut on the zone
  /// engine.
  void record_stall_witness();
  /// Link-cap enforcement: maps each candidate edge to its directed
  /// zone-pair group and delegates to flow::enforce_group_caps (pass-1
  /// admission drops are RunReport::link_cap_rejections, pass-2 re-seats are
  /// link_cap_rescues). `costs` is the same matrix the min-cost solve used.
  void enforce_link_caps(const flow::ConnectionProblem& problem,
                         const flow::EdgeCosts& costs,
                         flow::MatchResult& result);
  void retire_completed();
  void abort_session(SessionId id);
  /// Drop one of the session's refs; the last one releases the record.
  void release(SessionId id);
  /// Add each kReportCounters row's growth since the last publish to its
  /// obs counter, and the derived rows' (the round count, one |Y|
  /// observation per round). Runs at the end of step() and of
  /// set_box_online().
  void publish();
  /// Debug builds: assert total_capacity_slots_ matches a full rescan after
  /// a ±delta update.
  void debug_check_capacity_total() const;
  /// Debug builds: assert `box`'s relayed_requests_ entry, and their total,
  /// match a rescan of the live and pending requests (no allocation, so the
  /// heap-traffic bounds hold in Debug builds too).
  void debug_check_relayed_requests(model::BoxId box) const;

  const model::Catalog& catalog_;
  const model::CapacityProfile& profile_;
  const alloc::Allocation& allocation_;
  RequestStrategy& strategy_;
  SimulatorOptions options_;

  SwarmRegistry swarms_;
  CacheIndex cache_;
  /// Persistent CSR adjacency + matching; null on the zone-aware engine.
  std::unique_ptr<SparseRoundState> sparse_;
  /// Cache expiries the CSR engine has not consumed yet: it solves only in
  /// rounds with a live request.
  std::vector<CacheExpiry> expired_;

  std::vector<Session> sessions_;  ///< by SessionId; released ids included
  std::vector<SessionId> free_sessions_;  ///< released ids, reused last first
  std::vector<model::Round> busy_until_;
  /// Per box: the last session admitted, or kInvalidSession once that
  /// record is released. Admission needs an idle box, so every earlier
  /// session of the box has ended or been aborted: this is the only playback
  /// of the box that a failure can still cut short.
  std::vector<SessionId> last_session_;
  /// Per box: live and pending requests it downloads for a session of
  /// another box (the §4 relay). A failure of the box aborts those sessions
  /// besides its own; when the count is 0 there is nothing to look for.
  std::vector<std::uint32_t> relayed_requests_;
  RoundCalendar<PendingRequest> pending_;  ///< by issue round
  RoundCalendar<SessionId> end_events_;    ///< by Session::ends
  /// Live requests, struct-of-arrays, in issue order: activation appends
  /// the requests issued at now_, and removal keeps the order, so the
  /// requests that retire in a round are a prefix.
  LiveRequestSoA live_;
  std::vector<std::uint32_t> capacity_slots_;
  std::vector<std::uint32_t> nominal_capacity_;  ///< restored on recovery
  std::vector<std::uint8_t> online_;  ///< 0 or 1 per box
  std::uint64_t total_capacity_slots_ = 0;

  RunReport report_;
  /// The report values publish() last added to the obs metrics.
  struct Published {
    std::array<std::uint64_t, kReportCounters.size()> counts{};
    model::Round rounds = 0;
    double active_requests_sum = 0.0;
  };
  Published published_;
  model::Round now_ = 0;
  bool stalled_ = false;

  // scratch buffers reused across rounds
  std::vector<model::BoxId> scratch_candidates_;
  std::vector<PlannedRequest> scratch_plans_;
  std::vector<model::StripeId> scratch_cache_stripes_;
  std::vector<SessionId> scratch_doomed_;
};

}  // namespace p2pvod::sim
