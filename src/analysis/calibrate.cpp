#include "analysis/calibrate.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "alloc/allocation.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/adversarial.hpp"
#include "workload/distinct.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/limiter.hpp"

namespace p2pvod::analysis {

const char* suite_name(WorkloadSuite suite) noexcept {
  switch (suite) {
    case WorkloadSuite::kAvoider:
      return "avoider";
    case WorkloadSuite::kFlashCrowd:
      return "flash-crowd";
    case WorkloadSuite::kDistinct:
      return "distinct";
    case WorkloadSuite::kFull:
      return "full";
  }
  return "unknown";
}

std::uint32_t TrialSpec::catalog() const {
  if (m_override != 0) return m_override;
  const double m = d * static_cast<double>(n) / static_cast<double>(k);
  return m < 1.0 ? 1u : static_cast<std::uint32_t>(m);
}

namespace {

/// One thread's trial engine (see Calibrator::run_trial): the objects a
/// trial's simulator references, and the simulator.
struct TrialEngine {
  model::Catalog catalog{1, 1, 1};
  model::CapacityProfile profile;
  alloc::Allocation allocation{0, 0, {}};
  sim::StrategyKind strategy_kind = sim::StrategyKind::kPreloading;
  std::unique_ptr<sim::RequestStrategy> strategy;
  /// Strict, on the four objects above; built at the thread's first trial
  /// and again only for a trial with another strategy kind.
  std::unique_ptr<sim::Simulator> simulator;
  bool in_use = false;
};

/// Holds the thread's engine for one trial, and frees it however the trial
/// ends.
class EngineLease {
 public:
  explicit EngineLease(TrialEngine& engine) : engine_(engine) {
    if (engine.in_use)
      throw std::logic_error(
          "Calibrator::run_trial: nested call on the same thread");
    engine.in_use = true;
  }
  ~EngineLease() { engine_.in_use = false; }
  EngineLease(const EngineLease&) = delete;
  EngineLease& operator=(const EngineLease&) = delete;

 private:
  TrialEngine& engine_;
};

bool run_one_workload(const TrialSpec& spec, sim::Simulator& simulator,
                      WorkloadSuite which, std::uint64_t seed) {
  simulator.reset();
  util::Rng rng(seed);
  switch (which) {
    case WorkloadSuite::kAvoider: {
      workload::AvoiderAdversary inner(rng.child(1).seed());
      workload::GrowthLimiter limited(inner, spec.mu);
      return simulator.run(limited, spec.rounds).success;
    }
    case WorkloadSuite::kFlashCrowd: {
      const auto video = static_cast<model::VideoId>(
          rng.next_below(simulator.catalog().video_count()));
      workload::FlashCrowd inner(video, spec.mu);
      return simulator.run(inner, spec.rounds).success;
    }
    case WorkloadSuite::kDistinct: {
      workload::DistinctVideosSweep inner(rng.child(2).seed(),
                                          /*repeat=*/true);
      workload::GrowthLimiter limited(inner, spec.mu);
      return simulator.run(limited, spec.rounds).success;
    }
    case WorkloadSuite::kFull:
      break;  // handled by caller
  }
  throw std::logic_error("run_one_workload: bad suite");
}

std::uint32_t k_for_catalog(const TrialSpec& spec, std::uint32_t m) {
  const double k =
      spec.d * static_cast<double>(spec.n) / static_cast<double>(m);
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(k));
}

}  // namespace

bool Calibrator::run_trial(const TrialSpec& spec, std::uint64_t seed) {
  thread_local TrialEngine engine;
  const EngineLease lease(engine);
  engine.catalog = model::Catalog(spec.catalog(), spec.c, spec.duration);
  engine.profile =
      model::CapacityProfile::homogeneous(spec.n, spec.u, spec.d);

  util::Rng rng(seed);
  engine.allocation = alloc::make_allocator(spec.scheme)
                          ->allocate(engine.catalog, engine.profile, spec.k,
                                     rng);
  if (engine.simulator == nullptr || engine.strategy_kind != spec.strategy) {
    engine.simulator.reset();  // it references the strategy replaced here
    engine.strategy = sim::make_strategy(spec.strategy);
    engine.strategy_kind = spec.strategy;
    sim::SimulatorOptions options;
    options.strict = true;
    engine.simulator = std::make_unique<sim::Simulator>(
        engine.catalog, engine.profile, engine.allocation, *engine.strategy,
        options);
  }
  sim::Simulator& simulator = *engine.simulator;

  if (spec.suite != WorkloadSuite::kFull) {
    return run_one_workload(spec, simulator, spec.suite,
                            rng.child(10).seed());
  }
  // Full suite: the same allocation must survive every adversary.
  for (const WorkloadSuite which :
       {WorkloadSuite::kAvoider, WorkloadSuite::kFlashCrowd,
        WorkloadSuite::kDistinct}) {
    if (!run_one_workload(spec, simulator, which,
                          rng.child(10 + static_cast<std::uint64_t>(which))
                              .seed())) {
      return false;
    }
  }
  return true;
}

util::Proportion Calibrator::success_rate(const TrialSpec& spec,
                                          std::uint32_t trials,
                                          std::uint64_t base_seed,
                                          util::ThreadPool* pool) {
  if (trials == 0) return {};
  const std::vector<char> outcomes = util::parallel_map<char>(
      trials,
      [&](std::size_t trial) -> char {
        return run_trial(spec, util::child_seed(base_seed, trial)) ? 1 : 0;
      },
      pool);
  const auto successes = static_cast<std::size_t>(
      std::count(outcomes.begin(), outcomes.end(), 1));
  return util::wilson_interval(successes, trials);
}

Calibrator::MinKResult Calibrator::min_feasible_k(TrialSpec spec,
                                                  std::uint32_t k_lo,
                                                  std::uint32_t k_hi,
                                                  double target,
                                                  std::uint32_t trials,
                                                  std::uint64_t base_seed,
                                                  util::ThreadPool* pool) {
  if (k_lo == 0 || k_hi < k_lo)
    throw std::invalid_argument("min_feasible_k: bad k range");
  MinKResult result;
  // One probe: run k's trials and record (k, rate) in evaluation order.
  auto reaches_target = [&](std::uint32_t k) {
    spec.k = k;
    const double rate = success_rate(spec, trials, base_seed, pool).estimate;
    result.explored.emplace_back(k, rate);
    return rate >= target;
  };

  // Doubling phase to bracket the transition, then binary search.
  std::uint32_t hi = k_lo;
  std::uint32_t lo_fail = 0;  // largest known-failing k
  while (!reaches_target(hi)) {
    lo_fail = hi;
    hi = std::min(k_hi, hi * 2);
    if (hi == lo_fail) return result;  // hit the cap while failing
  }

  std::uint32_t lo = std::max(k_lo, lo_fail + 1);
  // Invariant: rate(hi) >= target; everything <= lo_fail failed.
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (reaches_target(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.k = hi;
  spec.k = hi;
  result.catalog = spec.catalog();
  return result;
}

Calibrator::MaxCatalogResult Calibrator::max_catalog(TrialSpec spec,
                                                     double target,
                                                     std::uint32_t trials,
                                                     std::uint64_t base_seed,
                                                     util::ThreadPool* pool) {
  MaxCatalogResult result;
  const auto m_max =
      static_cast<std::uint32_t>(spec.d * static_cast<double>(spec.n));
  if (m_max == 0) return result;
  // One probe: run m's trials at k = ⌊d·n/m⌋ and record (m, rate).
  auto feasible = [&](std::uint32_t m) {
    spec.k = k_for_catalog(spec, m);
    spec.m_override = m;
    const double rate = success_rate(spec, trials, base_seed, pool).estimate;
    result.explored.emplace_back(m, rate);
    return rate >= target;
  };

  if (!feasible(1)) return result;  // even m=1 fails
  std::uint32_t lo = 1, hi = m_max;
  if (m_max > 1 && !feasible(m_max)) {  // m_max = 1 was just probed
    // Binary search inside (1, m_max).
    while (lo + 1 < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (feasible(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  } else {
    lo = m_max;
  }
  result.m = lo;
  result.k = k_for_catalog(spec, lo);
  return result;
}

}  // namespace p2pvod::analysis
