// RunReport: everything a simulation run measured.
#pragma once

#include <cstdint>
#include <string>

#include "model/ids.hpp"
#include "util/stats.hpp"

namespace p2pvod::sim {

struct RunReport {
  // --- outcome ---
  bool success = true;           ///< no request-round went unserved
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
  /// pays one per live request per round; the CSR engine only for dirtied
  /// rows.
  std::uint64_t rows_built = 0;
  std::uint64_t row_patches = 0;          ///< surgical CSR row edits
  std::uint64_t sparse_full_rebuilds = 0; ///< dirty-fraction fallback trips

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

}  // namespace p2pvod::sim
