// Executor + calibration microbenchmarks (google-benchmark).
//
// Two parts:
//   * raw pool throughput — parallel_for at several grain sizes;
//   * calibration searches — min_feasible_k / max_catalog at 1..8 threads.
//     Each probe's trials run in parallel while the probes themselves run
//     one after another, so the search's wall time has a floor of (probes x
//     one trial) however many threads exist.
//
// Wall time is what parallel execution changes, so every multithreaded
// benchmark uses UseRealTime().
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/calibrate.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace p2pvod;

void BM_ParallelForGrain(benchmark::State& state) {
  util::ThreadPool pool(4);
  constexpr std::size_t kCount = 1 << 14;
  const auto grain = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> out(kCount);
  for (auto _ : state) {
    util::parallel_for(
        0, kCount,
        [&out](std::size_t i) {
          // ~100ns of real work per index so grain overhead is measurable
          // against something, not against an empty body.
          std::uint64_t h = i;
          for (int r = 0; r < 16; ++r) h = h * 0x9e3779b97f4a7c15ULL + r;
          out[i] = h;
        },
        &pool, grain);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCount));
}
BENCHMARK(BM_ParallelForGrain)->Arg(1)->Arg(16)->Arg(256)->Arg(4096)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

analysis::TrialSpec calibration_spec() {
  analysis::TrialSpec spec;
  spec.n = 32;
  spec.u = 1.5;
  spec.d = 4.0;
  spec.mu = 1.3;
  spec.c = 4;
  spec.duration = 8;
  spec.rounds = 24;
  spec.suite = analysis::WorkloadSuite::kFull;
  return spec;
}

// Few trials per probe: each probe is a barrier, and 2 trials occupy at most
// 2 workers, so these cases show the per-probe floor rather than trial
// throughput.
constexpr std::uint32_t kCalibrationTrials = 2;
constexpr std::uint64_t kCalibrationSeed = 0xBE7C;

void BM_MinFeasibleK(benchmark::State& state) {
  const analysis::TrialSpec spec = calibration_spec();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto result = analysis::Calibrator::min_feasible_k(
        spec, 1, 64, 1.0, kCalibrationTrials, kCalibrationSeed, &pool);
    benchmark::DoNotOptimize(result.k);
  }
}
BENCHMARK(BM_MinFeasibleK)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_MaxCatalog(benchmark::State& state) {
  const analysis::TrialSpec spec = calibration_spec();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto result = analysis::Calibrator::max_catalog(
        spec, 1.0, kCalibrationTrials, kCalibrationSeed, &pool);
    benchmark::DoNotOptimize(result.m);
  }
}
BENCHMARK(BM_MaxCatalog)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
