// Parallel execution of a ParameterGrid.
//
// SweepRunner batches grid points onto a util::ThreadPool and collects the
// per-point metric vectors into a SweepResult in grid-index order. Two rules
// make the output independent of thread count and scheduling:
//
//   1. Every point gets a deterministic seed child_seed(base_seed, index)
//      (util/rng); nothing about scheduling feeds the RNG.
//   2. Nested parallel helpers called from inside a point function degrade
//      to serial loops (parallel_for runs serially on any thread already
//      running a loop's chunks), so Calibrator's internally-parallel trial
//      loops are safe to call from a point function and consume their seeds
//      in the same order as a serial run.
//
// Figure benches therefore scale with cores across grid points while
// producing byte-identical tables to a serial run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sweep/parameter_grid.hpp"
#include "sweep/sweep_result.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace p2pvod::sweep {

struct SweepOptions {
  /// Root seed for the sweep; point `i` receives child_seed(base_seed, i).
  std::uint64_t base_seed = 0x5eedULL;
  /// Pool to batch points onto; nullptr selects ThreadPool::global().
  util::ThreadPool* pool = nullptr;
};

class SweepRunner {
 public:
  /// Computes the metric vector for one grid point. `seed` is the point's
  /// deterministic child seed; experiments that pin their own seeds (to
  /// reproduce a published figure exactly) may ignore it. Must return
  /// exactly as many values as metric names were passed to run().
  using PointFn =
      std::function<std::vector<double>(const GridPoint&, std::uint64_t seed)>;

  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  /// Evaluate `fn` on every grid point; rows come back in grid-index order
  /// regardless of thread count. Throws std::invalid_argument (propagated
  /// out of the pool) if `fn` returns the wrong number of metrics.
  [[nodiscard]] SweepResult run(const ParameterGrid& grid,
                                std::vector<std::string> metric_names,
                                const PointFn& fn) const;

  /// Seed handed to point `index` under `base_seed`.
  [[nodiscard]] static std::uint64_t point_seed(std::uint64_t base_seed,
                                                std::size_t index) noexcept {
    return util::child_seed(base_seed, static_cast<std::uint64_t>(index));
  }

 private:
  SweepOptions options_;
};

}  // namespace p2pvod::sweep
