// Integration tests: cross-module scenarios reproducing the paper's headline
// behaviours end to end — the u<1 collapse, the u>1 feasibility, the
// full-replication baseline trade-off, trace reproducibility.
#include <gtest/gtest.h>

#include "alloc/full_replication.hpp"
#include "alloc/permutation.hpp"
#include "analysis/impossibility.hpp"
#include "core/vod_system.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/adversarial.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/limiter.hpp"
#include "workload/sequential.hpp"
#include "workload/trace.hpp"
#include "workload/zipf.hpp"

namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace s = p2pvod::sim;
namespace w = p2pvod::workload;
namespace an = p2pvod::analysis;
namespace core = p2pvod::core;

// The §1.3 impossibility, executed: u < 1, m > d·c, avoider adversary ->
// the simulation must stall, and the analyzer must have predicted it.
TEST(Integration, BelowThresholdAvoiderDefeatsAnySystem) {
  const std::uint32_t n = 16, c = 2;
  const m::Catalog catalog(/*m=*/8, c, /*T=*/12);  // m=8 > d*c=4
  const auto profile = m::CapacityProfile::homogeneous(n, 0.5, 2.0);

  const auto cert = an::ImpossibilityAnalyzer::analyze(profile, catalog);
  ASSERT_TRUE(cert.applies);

  p2pvod::util::Rng rng(31337);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, 2, rng);
  s::PreloadingStrategy strategy;
  s::Simulator sim(catalog, profile, allocation, strategy);
  w::AvoiderAdversary adversary(1);
  const auto report = sim.run(adversary, 24);
  EXPECT_FALSE(report.success);
  EXPECT_GE(report.first_stall, 0);
  EXPECT_GT(report.stall_witness_size, 0u);
}

// Above the threshold the same adversary is absorbed (empirical Theorem 1).
TEST(Integration, AboveThresholdAvoiderAbsorbed) {
  const std::uint32_t n = 32, c = 4, k = 8;
  const m::Catalog catalog(/*m=*/16, c, /*T=*/12);
  const auto profile = m::CapacityProfile::homogeneous(n, 2.0, 4.0);
  p2pvod::util::Rng rng(4242);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, k, rng);
  s::PreloadingStrategy strategy;
  s::Simulator sim(catalog, profile, allocation, strategy);
  w::AvoiderAdversary inner(7);
  w::GrowthLimiter adversary(inner, 1.5);
  const auto report = sim.run(adversary, 36);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_GT(report.demands_admitted, 0u);
}

// Full-replication baseline (Suh et al. [22]): survives u<1 where random
// allocation dies, but its catalog is pinned at d·c.
TEST(Integration, FullReplicationSurvivesBelowThreshold) {
  const std::uint32_t n = 16, c = 4;
  const auto profile = m::CapacityProfile::homogeneous(n, 0.75, 2.0);
  const std::uint32_t max_m =
      a::FullReplicationAllocator::max_catalog(profile, c);
  EXPECT_EQ(max_m, 8u);  // d·c: the §1.3 constant-catalog ceiling

  const m::Catalog catalog(max_m, c, /*T=*/12);
  p2pvod::util::Rng rng(5);
  const auto allocation =
      a::FullReplicationAllocator().allocate(catalog, profile, 1, rng);
  s::PreloadingStrategy strategy;
  s::Simulator sim(catalog, profile, allocation, strategy);
  // u=0.75 -> 3 stripe-slots per box; each box needs at most 3 remote
  // stripes (one stripe of each video is local). Staggered arrivals via a
  // sequential viewer pattern.
  w::SequentialViewer viewers(11, /*join prob=*/0.25);
  w::GrowthLimiter limited(viewers, 1.3);
  const auto report = sim.run(limited, 48);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_GT(report.sessions_completed, 0u);
}

// Flash crowd at growth µ: preloading strategy survives where naive fails,
// with the same allocation (the §3 staggering ablation).
TEST(Integration, PreloadingBeatsNaiveUnderFlashCrowd) {
  const std::uint32_t n = 64, c = 4, k = 3;
  const m::Catalog catalog(/*m=*/32, c, /*T=*/16);
  const auto profile = m::CapacityProfile::homogeneous(n, 1.5, 4.0);
  p2pvod::util::Rng rng(99);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, k, rng);

  auto run_with = [&](s::RequestStrategy& strategy) {
    s::Simulator sim(catalog, profile, allocation, strategy);
    w::FlashCrowd crowd(/*video=*/3, /*mu=*/2.0);
    return sim.run(crowd, 40);
  };

  s::PreloadingStrategy preloading;
  const auto good = run_with(preloading);
  EXPECT_TRUE(good.success) << good.summary();

  s::NaiveStrategy naive;
  const auto bad = run_with(naive);
  EXPECT_FALSE(bad.success)
      << "naive strategy should collapse under maximal-growth flash crowd";
}

// A recorded defeating trace replays to the identical stall round.
TEST(Integration, DefeatingTraceReplaysExactly) {
  const std::uint32_t n = 16, c = 2;
  const m::Catalog catalog(8, c, 12);
  const auto profile = m::CapacityProfile::homogeneous(n, 0.5, 2.0);
  p2pvod::util::Rng rng(1);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, 2, rng);
  s::PreloadingStrategy strategy;

  w::AvoiderAdversary inner(1);
  w::TraceRecorder recorder(inner);
  s::Simulator sim1(catalog, profile, allocation, strategy);
  const auto first = sim1.run(recorder, 24);
  ASSERT_FALSE(first.success);

  w::TraceReplay replay(recorder.trace());
  s::Simulator sim2(catalog, profile, allocation, strategy);
  const auto second = sim2.run(replay, 24);
  EXPECT_FALSE(second.success);
  EXPECT_EQ(second.first_stall, first.first_stall);
  EXPECT_EQ(second.chunks_served, first.chunks_served);
}

// Same config + same seed -> bit-identical outcomes (full determinism).
TEST(Integration, EndToEndDeterminism) {
  auto run_once = [] {
    core::SystemConfig config;
    config.n = 32;
    config.u = 2.0;
    config.d = 4.0;
    config.c = 4;
    config.k = 6;
    config.duration = 10;
    config.seed = 777;
    const auto system = core::VodSystem::build(config);
    w::ZipfDemand zipf(system.catalog().video_count(), 0.9, 0.15, 555);
    return system.run(zipf, 30);
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  EXPECT_EQ(r1.demands_admitted, r2.demands_admitted);
  EXPECT_EQ(r1.requests_issued, r2.requests_issued);
  EXPECT_EQ(r1.chunks_served, r2.chunks_served);
  EXPECT_EQ(r1.success, r2.success);
}

// The round engine follows the topology: the CSR engine without one, the
// zone-aware dense engine with one. Both compute maximum matchings, so they
// serve and stall identically round by round — with all-zero costs (the
// Dinic fallback of the min-cost solver) and with real cross-zone costs.
TEST(Integration, EngineChoiceDoesNotChangeOutcome) {
  const std::uint32_t n = 24, c = 4, k = 4;
  const m::Catalog catalog(12, c, 10);
  const auto profile = m::CapacityProfile::homogeneous(n, 0.75, 4.0);
  p2pvod::util::Rng rng(12);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, k, rng);
  s::PreloadingStrategy strategy;
  const auto free_zones = p2pvod::net::Topology::uniform(n, 3);
  const p2pvod::net::Topology costly_zones =
      p2pvod::net::Topology::uniform(n, 3).set_uniform_cost(0, 1);

  auto run_with = [&](const p2pvod::net::Topology* topology) {
    s::SimulatorOptions options;
    options.strict = false;  // compare every round, stalls included
    options.topology = topology;
    s::Simulator sim(catalog, profile, allocation, strategy, options);
    EXPECT_EQ(sim.sparse_active(), topology == nullptr);
    w::ZipfDemand zipf(12, 0.8, 0.4, 31);
    return sim.run(zipf, 30);
  };

  const auto csr = run_with(nullptr);
  ASSERT_GT(csr.chunks_stalled, 0u);  // the instance is tight enough to bind
  for (const auto* topology : {&free_zones, &costly_zones}) {
    const auto dense = run_with(topology);
    EXPECT_EQ(csr.chunks_served, dense.chunks_served);
    EXPECT_EQ(csr.chunks_stalled, dense.chunks_stalled);
    EXPECT_EQ(csr.first_stall, dense.first_stall);
    EXPECT_EQ(csr.stall_witness_size, dense.stall_witness_size);
    EXPECT_EQ(csr.matcher_edges, dense.matcher_edges);
  }
}

// The binge viewer exercises the "end of previous + start of current" cache
// shape for many rounds without leaks or stalls on a generous system.
TEST(Integration, BingeViewingSoak) {
  const std::uint32_t n = 24, c = 2, k = 6;
  const m::Catalog catalog(8, c, 6);
  const auto profile = m::CapacityProfile::homogeneous(n, 2.5, 4.0);
  p2pvod::util::Rng rng(3);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, k, rng);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.verify_incremental = true;  // cross-check matcher all the way
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  w::SequentialViewer viewers(21, 0.5);
  w::GrowthLimiter limited(viewers, 1.4);
  const auto report = sim.run(limited, 60);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_GT(report.sessions_completed, n);  // multiple videos per box
}
