#include "core/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "model/capacity.hpp"

namespace p2pvod::core {

CatalogPlanner::CatalogPlanner(std::uint32_t n, double u, double d, double mu,
                               model::Round duration)
    : n_(n), u_(u), d_(d), mu_(mu), duration_(duration) {
  const auto fail = [](const char* message, double value) {
    std::ostringstream out;
    out << "CatalogPlanner: " << message << " (got " << value << ")";
    throw std::invalid_argument(out.str());
  };
  if (!std::isfinite(u)) fail("u must be finite", u);
  if (!std::isfinite(mu)) fail("mu must be finite", mu);
  // The calibrated search tries k up to d·n/2, and k = 1 means a catalog of
  // d·n videos: both are 32-bit counts. Written so that NaN fails it.
  if (!(std::isfinite(d) && d * static_cast<double>(n) <=
                               std::numeric_limits<std::uint32_t>::max()))
    fail("d must be finite, with d*n within 32 bits", d);
}

analysis::HomogeneousBounds CatalogPlanner::bounds() const {
  return analysis::Theorem1::evaluate({u_, d_, mu_});
}

Plan CatalogPlanner::plan(PlanMode mode, std::uint32_t trials,
                          std::uint64_t seed) const {
  Plan out;
  const auto profile = model::CapacityProfile::homogeneous(n_, u_, d_);
  const auto b = bounds();
  const auto verdict = Verdict::classify(profile, std::max(b.c, 1u));
  out.regime = verdict.regime;

  std::ostringstream notes;
  if (verdict.regime != Regime::kScalable) {
    out.feasible = false;
    notes << verdict.message;
    out.notes = notes.str();
    return out;
  }

  out.c = b.c;
  out.k_theory = b.k_real;
  out.m_closed_form =
      analysis::Theorem1::catalog_closed_form(n_, u_, d_, mu_);

  if (mode == PlanMode::kTheory) {
    out.k = b.k;
    out.m = b.catalog(n_);
    out.feasible = b.valid && out.m >= 1;
    notes << "Theorem 1 prescription: " << b.describe();
    // With small n the theoretical k can exceed the storage budget d·n —
    // the theorem is asymptotic; flag instead of failing silently.
    if (static_cast<double>(out.k) > d_ * static_cast<double>(n_)) {
      out.feasible = false;
      notes << " [k exceeds storage budget d*n at this n]";
    }
  } else {
    analysis::TrialSpec spec;
    spec.n = n_;
    spec.u = u_;
    spec.d = d_;
    spec.mu = mu_;
    spec.c = std::max(1u, b.c);
    spec.duration = duration_;
    spec.rounds = 3 * duration_;
    const auto k_hi = static_cast<std::uint32_t>(
        std::max(1.0, d_ * static_cast<double>(n_) / 2.0));
    const auto result = analysis::Calibrator::min_feasible_k(
        spec, 1, k_hi, 1.0, trials, seed);
    out.k = result.k;
    out.m = result.catalog;
    out.feasible = result.k != 0;
    notes << "calibrated k over " << trials << " trials (suite=full, c="
          << spec.c << ")";
  }
  out.notes = notes.str();
  return out;
}

}  // namespace p2pvod::core
