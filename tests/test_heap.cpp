// Heap-traffic guard for the round loop and the calibration trials. This
// executable replaces the global operator new and delete with counting
// versions, so it runs apart from the other suites. A sparse round's
// bookkeeping (plans, cache entries, the idle scan) and a thread's trial
// engine are meant to reuse their storage; these checks fail when a change
// brings per-demand or per-trial heap allocations back.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <utility>
#include <vector>

#include "alloc/permutation.hpp"
#include "analysis/calibrate.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "sim/request.hpp"
#include "sim/simulator.hpp"
#include "sim/strategy.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t bytes_allocated() {
  return g_bytes.load(std::memory_order_relaxed);
}

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded))
    return p;
  throw std::bad_alloc();
}

}  // namespace

// The replaceable forms that allocate; the nothrow forms call these.
void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace an = p2pvod::analysis;
namespace m = p2pvod::model;
namespace s = p2pvod::sim;
namespace w = p2pvod::workload;

TEST(HeapTraffic, PlansAllocateNothing) {
  std::vector<s::PlannedRequest> plans;
  plans.reserve(2);
  const std::uint64_t before = allocations();
  plans.push_back(s::PlannedRequest::direct(3, 7, 10));
  // The §4 relay's plan: the relay downloads, the poor box lags one round.
  s::PlannedRequest relayed;
  relayed.requester = 4;
  relayed.stripe = 7;
  relayed.issue = 10;
  relayed.grants = {s::CacheGrant{4, 10}, s::CacheGrant{3, 11}};
  plans.push_back(relayed);
  const std::uint64_t counted = allocations() - before;
  EXPECT_EQ(counted, 0u);
  ASSERT_EQ(plans[0].grants.size(), 1u);
  ASSERT_EQ(plans[1].grants.size(), 2u);
  EXPECT_EQ(plans[1].grants[1].entry, 11);
}

namespace {

/// What the round loop allocated over a steady-state window of sparse_5k's
/// protocol at 1,000 boxes: d = 4, c = 4, k = 6, T = 12, u = 2, Zipf(0.6)
/// audience with p = 0.01, non-strict CSR rounds. With `churn`, churn_5k's
/// drizzle of failures joins it: a round-robin cursor takes 5 boxes offline
/// each round and brings each back 4 rounds later. Counts cover step() and
/// set_box_online() from round kWarmup on; by then the live set, the cache
/// and the calendars are at steady state, so the loop should reuse what it
/// holds.
struct Tally {
  std::uint64_t warmup = 0;  ///< allocations before kWarmup
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
  std::uint64_t admitted = 0;
  std::uint64_t failures = 0;
  std::uint64_t aborted = 0;  ///< over the whole run
};

constexpr m::Round kWarmup = 200;

Tally run_protocol(m::Round rounds, bool churn) {
  constexpr std::uint32_t kBoxes = 1000;
  constexpr std::uint32_t kVideos = 4 * kBoxes / 6;
  constexpr std::uint32_t kChurnPerRound = 5;
  constexpr m::Round kOutage = 4;
  const m::Catalog catalog(kVideos, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(kBoxes, 2.0, 4.0);
  p2pvod::util::Rng rng(1);
  const auto allocation =
      p2pvod::alloc::PermutationAllocator().allocate(catalog, profile, 6, rng);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  EXPECT_TRUE(sim.sparse_active());
  w::ZipfDemand audience(kVideos, 0.6, 0.01, 2);

  std::deque<std::pair<m::Round, m::BoxId>> down;
  m::BoxId cursor = 0;
  Tally tally;
  for (m::Round round = 0; round < rounds; ++round) {
    const std::vector<s::Demand> demands = audience.demands(sim);
    const std::uint64_t admitted_before = sim.report().demands_admitted;
    const std::uint64_t failures_before = sim.report().box_failures;
    const std::uint64_t before = allocations();
    const std::uint64_t bytes_before = bytes_allocated();
    while (churn && !down.empty() && down.front().first <= round) {
      sim.set_box_online(down.front().second, true);
      down.pop_front();
    }
    for (std::uint32_t i = 0; churn && i < kChurnPerRound; ++i) {
      const m::BoxId victim = cursor;
      cursor = (cursor + 1) % kBoxes;
      if (!sim.box_online(victim)) continue;
      sim.set_box_online(victim, false);
      down.emplace_back(round + kOutage, victim);
    }
    sim.step(demands);
    if (round < kWarmup) {
      tally.warmup += allocations() - before;
      continue;
    }
    tally.allocations += allocations() - before;
    tally.bytes += bytes_allocated() - bytes_before;
    tally.admitted += sim.report().demands_admitted - admitted_before;
    tally.failures += sim.report().box_failures - failures_before;
  }
  tally.aborted = sim.report().sessions_aborted;
  return tally;
}

}  // namespace

TEST(HeapTraffic, SparseRoundsAllocateLittlePerDemand) {
  const Tally tally = run_protocol(700, false);
  // The counter works: the warm-up grows the simulator's storage.
  ASSERT_GT(tally.warmup, 0u);
  ASSERT_GT(tally.admitted, 2000u);
  const double per_demand = static_cast<double>(tally.allocations) /
                            static_cast<double>(tally.admitted);
  EXPECT_LT(per_demand, 0.02) << tally.allocations << " allocations for "
                              << tally.admitted << " admitted demands";
}

TEST(HeapTraffic, ChurnRoundsAllocateLittle) {
  // A failure aborts the box's playback and strips the box from its rows
  // and servings, which all reuse storage.
  const Tally tally = run_protocol(700, true);
  ASSERT_GT(tally.failures, 2000u);
  ASSERT_GT(tally.aborted, 200u);
  const double per_failure = static_cast<double>(tally.allocations) /
                             static_cast<double>(tally.failures);
  EXPECT_LT(per_failure, 0.1) << tally.allocations << " allocations for "
                               << tally.failures << " failures";
}

TEST(HeapTraffic, MemoryFollowsLiveSessionsNotRunLength) {
  // Over 2,000 steady rounds the simulator admits about 18,000 sessions,
  // while about 1,000 are live at a time. Session records are recycled, so
  // the bytes step() allocates per admitted demand stay flat however long
  // the run (about 20); a table with one record per session ever admitted
  // keeps doubling, at about 160 bytes per demand.
  for (const bool churn : {false, true}) {
    const Tally tally = run_protocol(2200, churn);
    ASSERT_GT(tally.admitted, 10000u);
    const double per_demand = static_cast<double>(tally.bytes) /
                              static_cast<double>(tally.admitted);
    EXPECT_LT(per_demand, 50.0)
        << (churn ? "churn" : "sparse") << ": " << tally.bytes
        << " bytes for " << tally.admitted << " admitted demands";
  }
}

TEST(HeapTraffic, WarmTrialsAllocateLittle) {
  // The threshold_trials benchmark's trial: n = 100 at u = 1, the full
  // suite (avoider, flash crowd, distinct sweep on one allocation). The
  // first trial on this thread builds its engine; the later ones reuse it,
  // so what they allocate is the trial's allocation and the generators'
  // demand vectors, not the simulator's tables.
  an::TrialSpec spec;
  spec.n = 100;
  spec.u = 1.0;
  spec.d = 4.0;
  spec.mu = 1.3;
  spec.c = 4;
  spec.k = 4;
  spec.duration = 24;
  spec.rounds = 72;
  spec.scheme = p2pvod::alloc::Scheme::kPermutation;
  spec.strategy = s::StrategyKind::kPreloading;
  spec.suite = an::WorkloadSuite::kFull;

  const std::uint64_t warmup_before = allocations();
  (void)an::Calibrator::run_trial(spec, p2pvod::util::child_seed(1, 0));
  // The counter works: the warm-up builds the engine.
  ASSERT_GT(allocations() - warmup_before, 0u);

  constexpr std::uint64_t kTrials = 20;
  std::uint64_t successes = 0;
  const std::uint64_t count_before = allocations();
  const std::uint64_t bytes_before = bytes_allocated();
  for (std::uint64_t trial = 1; trial <= kTrials; ++trial) {
    successes += an::Calibrator::run_trial(
                     spec, p2pvod::util::child_seed(1, trial))
                     ? 1
                     : 0;
  }
  const double per_trial =
      static_cast<double>(allocations() - count_before) / kTrials;
  const double bytes_per_trial =
      static_cast<double>(bytes_allocated() - bytes_before) / kTrials;
  // Both outcomes occur at u = 1, so the trials run to a stall as well as
  // to the end.
  EXPECT_GT(successes, 0u);
  EXPECT_LT(successes, kTrials);
  EXPECT_LT(per_trial, 300.0) << "heap allocations per warm trial";
  EXPECT_LT(bytes_per_trial, 0.1e6) << "bytes allocated per warm trial";
}
