// SystemConfig: the user-facing knob set for building a VodSystem.
//
// Only (n, u, d, µ, T) are required; c, k and m default to the Theorem 1
// prescription (see core/planner.hpp) and can be overridden for experiments.
#pragma once

#include <cstdint>
#include <string>

#include "alloc/allocator.hpp"
#include "model/ids.hpp"
#include "sim/strategy.hpp"

namespace p2pvod::core {

struct SystemConfig {
  // --- the (n, u, d)-video system ---
  std::uint32_t n = 200;  ///< boxes
  double u = 1.5;         ///< normalized upload (streams)
  double d = 4.0;         ///< storage (videos)

  // --- dynamics ---
  double mu = 1.3;              ///< maximal swarm growth
  model::Round duration = 24;   ///< video duration T in rounds

  // --- protocol overrides (0 = derive from Theorem 1) ---
  std::uint32_t c = 0;  ///< stripes per video
  std::uint32_t k = 0;  ///< replicas per stripe
  std::uint32_t m = 0;  ///< catalog size (0 = ⌊d·n/k⌋)

  // --- network topology (0 = the paper's uniform cloud, no topology) ---
  /// Number of zones; boxes are assigned round-robin and serving across
  /// zones costs 1 transit unit per connection (intra-zone is free). The
  /// matching then minimizes cross-zone traffic (src/net, flow/min_cost).
  std::uint32_t zones = 0;

  // --- machinery ---
  alloc::Scheme scheme = alloc::Scheme::kPermutation;
  sim::StrategyKind strategy = sim::StrategyKind::kPreloading;
  bool strict = true;
  std::uint64_t seed = 0x5eedULL;

  /// Throws std::invalid_argument on out-of-domain values.
  void validate() const;

  [[nodiscard]] std::string describe() const;
};

}  // namespace p2pvod::core
