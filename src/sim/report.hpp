// RunReport: everything a simulation run measured, and the table that
// publishes its counts as the sim/ obs metrics.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "model/ids.hpp"
#include "util/stats.hpp"

namespace p2pvod::sim {

struct RunReport {
  // --- outcome ---
  /// Strict-mode flag: false once a strict run stalls. A non-strict run
  /// counts its stalls in chunks_stalled and keeps it true.
  bool success = true;
  model::Round first_stall = -1; ///< round of the first unserved request (-1 if none)
  std::uint32_t stall_witness_size = 0;  ///< |X| of the Hall-violating set at first stall

  // --- volume ---
  model::Round rounds = 0;
  std::uint64_t demands_admitted = 0;
  std::uint64_t demands_rejected = 0;    ///< box busy (at most one video per box)
  std::uint64_t requests_issued = 0;
  std::uint64_t chunks_served = 0;       ///< request-rounds satisfied
  std::uint64_t chunks_stalled = 0;      ///< request-rounds missed (non-strict mode)
  std::uint64_t sessions_completed = 0;

  // --- churn (box failure extension) ---
  std::uint64_t box_failures = 0;     ///< set_box_online(b, false) events
  std::uint64_t sessions_aborted = 0; ///< playbacks killed by a failure

  // --- quality ---
  util::Histogram startup_delay;         ///< demand round -> first playback round + 1
  util::OnlineStats upload_utilization;  ///< per-round served / capacity
  util::OnlineStats active_requests;     ///< per-round |Y|
  std::uint32_t peak_swarm = 0;

  // --- matcher accounting ---
  /// Connections carried over from the previous round / newly augmented
  /// (CSR engine only; a zone-aware run re-solves from scratch).
  std::uint64_t kept_connections = 0;
  std::uint64_t new_connections = 0;
  std::uint64_t matcher_edges = 0;       ///< total candidate edges examined

  // --- candidate-construction accounting ---
  /// Candidate rows collected from ground truth. The zone-aware dense path
  /// pays one per live request per round; the CSR engine one per swarm
  /// class (the live requests of one stripe issued in one round).
  std::uint64_t rows_built = 0;
  std::uint64_t row_patches = 0;          ///< surgical CSR row edits
  /// Always 0: the CSR engine has no full-rebuild fallback any more. Kept
  /// because the benchmark reads it.
  std::uint64_t sparse_full_rebuilds = 0;
  /// Cache retention-window expiry events processed (CSR engine only).
  std::uint64_t expiry_events = 0;

  // --- topology (zone-aware matching extension; all zero without one) ---
  std::uint64_t intra_zone_chunks = 0;   ///< chunks served within a zone
  std::uint64_t cross_zone_chunks = 0;   ///< chunks served across zones
  /// Connections dropped at a capped zone link in the admission pass
  /// (pass 1 of cap enforcement). Counts every over-cap drop, whether or not
  /// the rescue pass re-seated the request — so rejections alone overstate
  /// lost service; subtract link_cap_rescues for the net loss.
  std::uint64_t link_cap_rejections = 0;
  /// Dropped requests re-seated by the greedy rescue pass (pass 2): served
  /// over another link (or box) with spare budget in the same round. Always
  /// <= link_cap_rejections.
  std::uint64_t link_cap_rescues = 0;
  std::int64_t zone_cost_total = 0;      ///< Σ zone-pair costs of served chunks
  util::OnlineStats cross_zone_fraction; ///< per-round cross-zone share of served

  /// Lifetime cross-zone share of served chunks (0.0 when nothing served or
  /// no topology was attached).
  [[nodiscard]] double cross_zone_share() const noexcept {
    const std::uint64_t total = intra_zone_chunks + cross_zone_chunks;
    return total == 0 ? 0.0
                      : static_cast<double>(cross_zone_chunks) /
                            static_cast<double>(total);
  }

  /// Fraction of request-rounds served (1.0 on success).
  [[nodiscard]] double continuity() const noexcept {
    const std::uint64_t total = chunks_served + chunks_stalled;
    return total == 0 ? 1.0
                      : static_cast<double>(chunks_served) /
                            static_cast<double>(total);
  }

  [[nodiscard]] std::string summary() const;
};

/// One cumulative RunReport count and the obs counter it is published to.
struct ReportCounter {
  std::uint64_t RunReport::*field;
  std::string_view metric;
};

/// RunReport counts published as sim/ obs counters. The simulator writes each
/// count once, into its report; Simulator::publish() adds each row's growth
/// since its last publish to the row's counter, so a metric cannot disagree
/// with its field. kStable: each run's round loop is sequential and
/// seed-determined, and the multiset of runs a sweep evaluates is
/// thread-count-invariant.
inline constexpr std::array kReportCounters{
    ReportCounter{&RunReport::demands_admitted, "sim/demands_admitted"},
    ReportCounter{&RunReport::demands_rejected, "sim/demands_rejected"},
    ReportCounter{&RunReport::requests_issued, "sim/requests_issued"},
    ReportCounter{&RunReport::chunks_served, "sim/chunks_matched"},
    ReportCounter{&RunReport::chunks_stalled, "sim/chunks_unmatched"},
    ReportCounter{&RunReport::sessions_completed, "sim/sessions_completed"},
    ReportCounter{&RunReport::box_failures, "sim/box_failures"},
    ReportCounter{&RunReport::sessions_aborted, "sim/sessions_aborted"},
    ReportCounter{&RunReport::kept_connections, "sim/sparse_kept_connections"},
    ReportCounter{&RunReport::new_connections, "sim/sparse_new_connections"},
    ReportCounter{&RunReport::matcher_edges, "sim/matcher_edges"},
    ReportCounter{&RunReport::rows_built, "sim/sparse_rows_built"},
    ReportCounter{&RunReport::row_patches, "sim/sparse_row_patches"},
    ReportCounter{&RunReport::sparse_full_rebuilds, "sim/sparse_full_rebuilds"},
    ReportCounter{&RunReport::expiry_events, "sim/sparse_expiry_events"},
    ReportCounter{&RunReport::intra_zone_chunks, "sim/intra_zone_chunks"},
    ReportCounter{&RunReport::cross_zone_chunks, "sim/cross_zone_chunks"},
    ReportCounter{&RunReport::link_cap_rejections, "sim/link_cap_rejections"},
    ReportCounter{&RunReport::link_cap_rescues, "sim/link_cap_rescues"},
};

/// Derived rows, published beside the table: a counter of RunReport::rounds
/// (a model::Round, not a std::uint64_t field), and a histogram observing
/// once per round the pre-solve |Y| that RunReport::active_requests received.
inline constexpr std::string_view kRoundsMetric = "sim/rounds";
inline constexpr std::string_view kActiveRequestsMetric =
    "sim/round_active_requests";

}  // namespace p2pvod::sim
