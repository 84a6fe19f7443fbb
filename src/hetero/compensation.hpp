// u*-upload-compensation (§4).
//
// In a heterogeneous system, boxes with u_b < u* ("poor") cannot replicate
// data among themselves fast enough when they crowd into one swarm. The
// paper's remedy: every poor box b is paired with a rich relay r(b) that
// reserves upload  u* + 1 − 2·u_b  for b; a rich box a may host several
// reservations while  u_a >= u* + Σ_{b: r(b)=a} (u* + 1 − 2 u_b).
//
// CompensationPlan computes such a pairing (first-fit decreasing — the
// pairing is an existence argument in the paper, any feasible one works),
// plus the derived quantities the simulator needs:
//   * usable upload per box: u_a minus the *statically consumed* forwarding
//     bandwidth (c − c_b)/c per hosted poor box (the paper's u'_a = u_a − U^s)
//   * direct stripe count per poor box: c_b = max(0, ⌊c·u_b − 4µ⁴⌋).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/capacity.hpp"
#include "model/ids.hpp"

namespace p2pvod::hetero {

struct CompensationPlan {
  double u_star = 1.0;
  std::uint32_t c = 1;
  double mu = 1.0;

  /// relay[b] = r(b) for poor boxes; kInvalidBox for rich boxes.
  std::vector<model::BoxId> relay;
  /// Total reservation Σ (u*+1-2u_b) hosted on each box (0 for poor boxes).
  std::vector<double> reserved;
  /// Upload available for answering requests after static forwarding costs.
  std::vector<double> usable_upload;
  /// c_b for poor boxes (stripes requested directly); c for rich boxes.
  std::vector<std::uint32_t> direct_stripes;

  [[nodiscard]] std::uint32_t poor_count() const;
  /// Integral matching capacities ⌊usable·c⌋ for Simulator::capacity_override.
  [[nodiscard]] std::vector<std::uint32_t> capacity_slots() const;
  [[nodiscard]] std::string describe() const;

  /// Re-verify every §4 inequality; throws std::logic_error on violation.
  void check(const model::CapacityProfile& profile) const;
};

class Compensator {
 public:
  /// Build a compensation plan, or nullopt when no feasible pairing exists
  /// (e.g. u < u* + Δ(u*)/n, or no box is rich enough for some reservation).
  /// Throws std::invalid_argument unless u* > 1, c > 0 and µ >= 1 (NaN
  /// fails each test).
  [[nodiscard]] static std::optional<CompensationPlan> plan(
      const model::CapacityProfile& profile, double u_star, std::uint32_t c,
      double mu);

  /// Necessary condition quoted by the paper: u >= u* + Δ(1)/n.
  [[nodiscard]] static bool necessary_condition(
      const model::CapacityProfile& profile, double u_star);

  /// c_b = max(0, ⌊c·u_b − 4µ⁴⌋), clamped to c−1 (at least the preload stripe
  /// always goes through the relay).
  [[nodiscard]] static std::uint32_t direct_stripe_count(double u_b,
                                                         std::uint32_t c,
                                                         double mu);
};

}  // namespace p2pvod::hetero
