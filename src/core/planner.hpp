// CatalogPlanner: turn deployment parameters into protocol parameters.
//
// Given (n, u, d, µ) the planner prescribes (c, k, m) two ways:
//   * kTheory     — Theorem 1's formulas verbatim (conservative: the theorem's
//                   constants are worst-case over all adversaries);
//   * kCalibrated — the theory's c plus an empirically calibrated k from
//                   Monte-Carlo trials against the adversarial suite (what a
//                   deployment would actually provision).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/bounds.hpp"
#include "analysis/calibrate.hpp"
#include "core/verdict.hpp"

namespace p2pvod::core {

enum class PlanMode { kTheory, kCalibrated };

struct Plan {
  bool feasible = false;
  Regime regime = Regime::kAtThreshold;
  std::uint32_t c = 0;
  std::uint32_t k = 0;
  std::uint32_t m = 0;        ///< achievable catalog with this (c, k)
  double k_theory = 0.0;      ///< the un-rounded Theorem 1 bound
  double m_closed_form = 0.0; ///< the Ω(·) closed-form catalog value
  std::string notes;
};

class CatalogPlanner {
 public:
  /// Throws std::invalid_argument when u, d or mu is not finite or the
  /// storage budget d·n does not fit in 32 bits.
  CatalogPlanner(std::uint32_t n, double u, double d, double mu,
                 model::Round duration = 24);

  [[nodiscard]] Plan plan(PlanMode mode = PlanMode::kTheory,
                          std::uint32_t trials = 8,
                          std::uint64_t seed = 0x9e3779b9ULL) const;

  /// The underlying Theorem 1 evaluation (exposed for reports).
  [[nodiscard]] analysis::HomogeneousBounds bounds() const;

 private:
  std::uint32_t n_;
  double u_;
  double d_;
  double mu_;
  model::Round duration_;
};

}  // namespace p2pvod::core
