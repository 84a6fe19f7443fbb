// Monte-Carlo calibration: the empirical side of Theorem 1.
//
// The theorem says: above the threshold, a random allocation with
// k = Θ(log d′) replicas survives every µ-bounded demand sequence whp.
// Calibrator measures the *empirical* minimum k (and maximum catalog m) at
// which the simulated system survives an adversarial workload suite, so the
// experiments can put theory and measurement side by side (E3, E4).
//
// A trial = allocate with a fresh seed, then run the selected workload
// suite(s) against the same allocation in strict mode; the trial succeeds iff
// no request-round ever goes unserved. Trials are independent and run in
// parallel with deterministic child seeds, each thread on its own reused
// simulator (see run_trial).
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/allocator.hpp"
#include "sim/strategy.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace p2pvod::analysis {

/// Which demand sequences a trial must survive.
enum class WorkloadSuite {
  kAvoider,     ///< §1.3 avoider adversary (sourcing stress)
  kFlashCrowd,  ///< maximal-growth flash crowd (swarming stress)
  kDistinct,    ///< pairwise distinct videos ([3]'s regime)
  kFull,        ///< all of the above, same allocation
};

[[nodiscard]] const char* suite_name(WorkloadSuite suite) noexcept;

struct TrialSpec {
  std::uint32_t n = 100;
  double u = 1.5;
  double d = 4.0;
  double mu = 1.3;
  std::uint32_t c = 4;
  std::uint32_t k = 4;
  model::Round duration = 24;   ///< T
  model::Round rounds = 72;     ///< simulated rounds per workload
  alloc::Scheme scheme = alloc::Scheme::kPermutation;
  sim::StrategyKind strategy = sim::StrategyKind::kPreloading;
  WorkloadSuite suite = WorkloadSuite::kFull;
  /// Explicit catalog size; 0 derives m from the storage identity ⌊d·n/k⌋.
  std::uint32_t m_override = 0;

  /// Catalog size: m_override, or ⌊d·n/k⌋ when unset (>= 1 either way).
  [[nodiscard]] std::uint32_t catalog() const;
};

class Calibrator {
 public:
  /// One allocation + workload-suite run. True iff every request-round was
  /// served.
  ///
  /// Each thread runs its trials on one engine of its own, kept in a
  /// thread_local: a catalog, a capacity profile, an allocation, a strategy
  /// and the strict simulator that references them. A trial assigns its
  /// catalog, profile and allocation into the engine's objects and resets
  /// the simulator before each adversary (sim::Simulator::reset), so after
  /// its first trial a thread makes almost no heap traffic. Only a trial
  /// with another strategy kind builds a new strategy and simulator. The
  /// outcome is the one a new simulator per adversary gives, whichever
  /// thread runs the trial. The engine is built at a thread's first trial,
  /// and the thread keeps its buffers, sized by the largest trial it has
  /// run, until it exits: about 0.2 MB after E2's trials at scale 1.0
  /// (n = 48, m = 32), and 0.4 MB after the threshold_trials benchmark's
  /// (n = 100, m = 100). A call nested inside another run_trial on the same
  /// thread throws std::logic_error; a trial that throws leaves the engine
  /// usable.
  [[nodiscard]] static bool run_trial(const TrialSpec& spec,
                                      std::uint64_t seed);

  /// Fraction of successful trials with a Wilson 95% interval.
  [[nodiscard]] static util::Proportion success_rate(
      const TrialSpec& spec, std::uint32_t trials, std::uint64_t base_seed,
      util::ThreadPool* pool = nullptr);

  struct MinKResult {
    std::uint32_t k = 0;        ///< smallest k reaching the target (0 = none)
    std::uint32_t catalog = 0;  ///< m at that k
    /// (k, success rate) pairs explored, in evaluation order.
    std::vector<std::pair<std::uint32_t, double>> explored;
  };
  /// Smallest k in [k_lo, k_hi] whose success rate reaches `target`
  /// (doubling + binary search; success is treated as monotone in k).
  [[nodiscard]] static MinKResult min_feasible_k(
      TrialSpec spec, std::uint32_t k_lo, std::uint32_t k_hi, double target,
      std::uint32_t trials, std::uint64_t base_seed,
      util::ThreadPool* pool = nullptr);

  struct MaxCatalogResult {
    std::uint32_t m = 0;  ///< largest feasible catalog (0 = none feasible)
    std::uint32_t k = 0;  ///< replication at that m
    std::vector<std::pair<std::uint32_t, double>> explored;  ///< (m, rate)
  };
  /// Largest m in [1, ⌊d·n⌋] with success rate >= target, replication
  /// k = ⌊d·n/m⌋ (binary search; success treated as monotone decreasing in m).
  [[nodiscard]] static MaxCatalogResult max_catalog(
      TrialSpec spec, double target, std::uint32_t trials,
      std::uint64_t base_seed, util::ThreadPool* pool = nullptr);
};

}  // namespace p2pvod::analysis
