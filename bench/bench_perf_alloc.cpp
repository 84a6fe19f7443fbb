// Allocation microbenchmarks (google-benchmark).
//
// PermutationAllocator::allocate on the benchmark's world shape (u = 2,
// d = 4, c = 4, k = 6, m = ⌊d·n/k⌋, so the replicas fill every slot) at three
// sizes:
//   * n = 100, the size of one strict calibration trial, which allocates
//     afresh each time;
//   * n = 5,000, the sparse benchmark's world, where allocation is nearly
//     all of setup;
//   * n = 100,000, where the slot array (6 MB) no longer fits in cache.
// One iteration is one complete allocation from a fixed seed: the Fisher–
// Yates shuffle over the slot array, the per-stripe sorts, and both
// directions of the relation.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "alloc/permutation.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "util/rng.hpp"

namespace {

using namespace p2pvod;

void BM_PermutationAllocate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t kStripes = 4;
  constexpr std::uint32_t kReplicas = 6;
  constexpr double kStorage = 4.0;
  const model::Catalog catalog(
      static_cast<std::uint32_t>(kStorage * n / kReplicas), kStripes, 12);
  const auto profile = model::CapacityProfile::homogeneous(n, 2.0, kStorage);
  const alloc::PermutationAllocator allocator;
  for (auto _ : state) {
    util::Rng rng(20261019);
    const alloc::Allocation allocation =
        allocator.allocate(catalog, profile, kReplicas, rng);
    benchmark::DoNotOptimize(allocation.duplicate_replicas());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kReplicas) *
                          catalog.stripe_count());
}
BENCHMARK(BM_PermutationAllocate)
    ->Arg(100)
    ->Arg(5000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
