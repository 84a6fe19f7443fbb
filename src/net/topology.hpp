// Network topology: the zones (ISPs, regions) the boxes live in.
//
// The paper's model treats the network as a uniform cloud — any box can serve
// any other box at zero cost. The practical-algorithms line it builds on
// (Viennot et al.; Tan & Massoulié on placement) shows that *where* replicas
// sit relative to demand decides whether the threshold is achievable in a
// real network. Topology is the missing layer: every box belongs to exactly
// one zone, serving across zones carries a per-zone-pair cost, and a zone
// pair may carry an optional link capacity cap (stripe connections per
// round). The simulator consumes a Topology to make the per-round connection
// matching cost-aware (src/flow/min_cost.hpp) and to account cross-zone
// traffic in RunReport.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/ids.hpp"

namespace p2pvod::net {

using ZoneId = std::uint32_t;

/// Cost of one stripe connection between a zone pair, in abstract transit
/// units. Integral so min-cost matching stays exact (no float comparisons).
using Cost = std::int64_t;

/// Sentinel for "no cap" on a zone-pair link.
inline constexpr std::uint32_t kUnlimitedLink =
    static_cast<std::uint32_t>(-1);

class Topology {
 public:
  /// Explicit membership: zone_of[b] is box b's zone, each < zone_count.
  /// Costs default to zero everywhere, links to unlimited.
  Topology(std::vector<ZoneId> zone_of, std::uint32_t zone_count);

  // --- deterministic zone-assignment builders ---

  /// Round-robin assignment: box b lives in zone b % zones. Zone sizes differ
  /// by at most one.
  [[nodiscard]] static Topology uniform(std::uint32_t boxes,
                                        std::uint32_t zones);

  /// Zipf-sized zones: zone z receives a share proportional to 1/(z+1)^skew
  /// (largest-remainder rounding, every zone at least one box when boxes >=
  /// zones); which boxes land in which zone is a seeded permutation, so the
  /// same (boxes, zones, skew, seed) always yields the same topology.
  [[nodiscard]] static Topology zipf_sized(std::uint32_t boxes,
                                           std::uint32_t zones, double skew,
                                           std::uint64_t seed);

  /// Independent uniform assignment per box from a seeded RNG (zones may end
  /// up empty). Deterministic for a given seed.
  [[nodiscard]] static Topology random(std::uint32_t boxes,
                                       std::uint32_t zones,
                                       std::uint64_t seed);

  // --- cost model (chainable setters) ---

  /// cost(z, z) = intra for all z; cost(a, b) = inter for all a != b. Costs
  /// must lie in [0, flow::kMaxEdgeCost], the min-cost matcher's range;
  /// both setters throw std::invalid_argument outside it.
  Topology& set_uniform_cost(Cost intra, Cost inter);
  /// Directed per-pair override (serving from `from` into `to`).
  Topology& set_cost(ZoneId from, ZoneId to, Cost cost);
  /// Cost of a connection served from zone `from` into zone `to`.
  [[nodiscard]] Cost cost(ZoneId from, ZoneId to) const;
  /// Cost of `server` uploading one stripe connection to `client`.
  [[nodiscard]] Cost box_cost(model::BoxId server, model::BoxId client) const {
    return cost(zone_of(server), zone_of(client));
  }
  /// True when every zone-pair cost is zero (min-cost matching then degrades
  /// to the plain Dinic feasibility solve).
  [[nodiscard]] bool all_costs_zero() const noexcept;

  // --- link capacity caps (chainable setters) ---

  /// Cap every inter-zone pair (a != b) at `cap` connections per round;
  /// intra-zone links stay unlimited.
  Topology& set_uniform_link_cap(std::uint32_t cap);
  /// Directed per-pair cap; kUnlimitedLink removes it.
  Topology& set_link_cap(ZoneId from, ZoneId to, std::uint32_t cap);
  [[nodiscard]] std::uint32_t link_cap(ZoneId from, ZoneId to) const;
  [[nodiscard]] bool has_link_caps() const noexcept;

  // --- membership queries ---

  [[nodiscard]] ZoneId zone_of(model::BoxId b) const {
    return zone_of_.at(b);
  }
  [[nodiscard]] std::uint32_t zone_count() const noexcept {
    return zone_count_;
  }
  [[nodiscard]] std::uint32_t box_count() const noexcept {
    return static_cast<std::uint32_t>(zone_of_.size());
  }
  [[nodiscard]] std::uint32_t zone_size(ZoneId z) const;
  /// Box ids of zone z, ascending.
  [[nodiscard]] std::vector<model::BoxId> members(ZoneId z) const;

  [[nodiscard]] std::string describe() const;

 private:
  [[nodiscard]] std::size_t pair_index(ZoneId from, ZoneId to) const;

  std::vector<ZoneId> zone_of_;
  std::uint32_t zone_count_ = 0;
  std::vector<Cost> cost_;            ///< zone_count^2, row-major [from][to]
  std::vector<std::uint32_t> link_cap_;  ///< same layout; kUnlimitedLink = none
};

}  // namespace p2pvod::net
