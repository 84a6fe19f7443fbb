// E12b — simulator round-throughput benchmarks (google-benchmark).
//
// Measures full simulated rounds per second on the CSR round engine under a
// steady Zipf audience, at workshop sizes and at n = 1e5, where the
// rows_built/round counter shows how little candidate construction a round
// pays once rows persist across rounds; and one strict flash-crowd run on
// E2's spec across n, the part of a strict trial that grows with n.
#include <benchmark/benchmark.h>

#include "alloc/permutation.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/limiter.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace p2pvod;

struct BenchWorld {
  explicit BenchWorld(std::uint32_t n)
      : catalog(std::max<std::uint32_t>(2, 4 * n / 6), 4, 16),
        profile(model::CapacityProfile::homogeneous(n, 2.0, 4.0)),
        rng(0xBEEF),
        allocation(alloc::PermutationAllocator().allocate(catalog, profile, 6,
                                                          rng)) {
    options.strict = false;
  }

  model::Catalog catalog;
  model::CapacityProfile profile;
  util::Rng rng;
  alloc::Allocation allocation;
  sim::SimulatorOptions options;
};

void BM_SimulatorRounds(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  BenchWorld world(n);
  for (auto _ : state) {
    state.PauseTiming();
    sim::PreloadingStrategy strategy;
    sim::Simulator simulator(world.catalog, world.profile, world.allocation,
                             strategy, world.options);
    workload::ZipfDemand zipf(world.catalog.video_count(), 0.8, 0.1, 0x51);
    workload::GrowthLimiter limited(zipf, 1.3);
    state.ResumeTiming();
    benchmark::DoNotOptimize(simulator.run(limited, 32).chunks_served);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 32.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorRounds)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Candidate construction at production n: rows_built/round counts the rows
// collected from ground truth, against the ~n·c/T live requests a round
// holds.
void BM_RoundLoopAtScale(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  BenchWorld world(n);
  std::uint64_t rows_built = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::PreloadingStrategy strategy;
    sim::Simulator simulator(world.catalog, world.profile, world.allocation,
                             strategy, world.options);
    workload::ZipfDemand zipf(world.catalog.video_count(), 0.6, 0.01, 0x51);
    state.ResumeTiming();
    benchmark::DoNotOptimize(simulator.run(zipf, 16).chunks_served);
    rows_built += simulator.report().rows_built;
    rounds += 16;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kIsRate);
  state.counters["rows_built/round"] =
      static_cast<double>(rows_built) / static_cast<double>(rounds);
}
BENCHMARK(BM_RoundLoopAtScale)->Arg(100000)->Unit(benchmark::kMillisecond);

// One strict flash-crowd run on E2's spec (c = 4, k = 6, d = 4, mu = 1.3,
// T = 12, 36 rounds) at u = 1.25, where it succeeds: every viewer of the
// crowd watches one video, so the live requests of one stripe issued in one
// round share one swarm-class row. matcher_edges/round counts the
// per-request candidates the matcher sees, rows_built/round the class rows
// collected from ground truth.
void BM_FlashCrowdRun(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const model::Catalog catalog(4 * n / 6, 4, 12);
  const auto profile = model::CapacityProfile::homogeneous(n, 1.25, 4.0);
  util::Rng rng(0xE2);
  const alloc::Allocation allocation =
      alloc::PermutationAllocator().allocate(catalog, profile, 6, rng);
  std::uint64_t edges = 0;
  std::uint64_t rows_built = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::PreloadingStrategy strategy;
    sim::Simulator simulator(catalog, profile, allocation, strategy);
    workload::FlashCrowd crowd(0, 1.3);
    state.ResumeTiming();
    const sim::RunReport report = simulator.run(crowd, 36);
    benchmark::DoNotOptimize(report.success);
    edges += report.matcher_edges;
    rows_built += report.rows_built;
    rounds += static_cast<std::uint64_t>(report.rounds);
  }
  state.counters["matcher_edges/round"] =
      static_cast<double>(edges) / static_cast<double>(rounds);
  state.counters["rows_built/round"] =
      static_cast<double>(rows_built) / static_cast<double>(rounds);
}
BENCHMARK(BM_FlashCrowdRun)->Arg(192)->Arg(768)->Arg(3072)
    ->Unit(benchmark::kMillisecond);

// Allocation cost (setup path, not the round loop).
void BM_PermutationAllocate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const model::Catalog catalog(std::max<std::uint32_t>(2, 4 * n / 6), 4, 16);
  const auto profile = model::CapacityProfile::homogeneous(n, 2.0, 4.0);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(
        alloc::PermutationAllocator()
            .allocate(catalog, profile, 6, rng)
            .max_slot_usage());
  }
}
BENCHMARK(BM_PermutationAllocate)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
