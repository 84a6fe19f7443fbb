// Property-based tests (parameterized gtest sweeps) over the library's key
// invariants:
//   * Lemma 1: flow-matching feasibility == Hall condition, across an
//     instance family
//   * allocation schemes preserve structural invariants across seeds
//   * simulator feasibility is monotone in upload capacity and replication
//   * the CSR round engine == the Dinic oracle along whole simulations
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "alloc/allocator.hpp"
#include "analysis/calibrate.hpp"
#include "flow/bipartite.hpp"
#include "flow/csr_matcher.hpp"
#include "flow/csr_problem.hpp"
#include "flow/hall.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/limiter.hpp"
#include "workload/zipf.hpp"

namespace f = p2pvod::flow;
namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace s = p2pvod::sim;
namespace w = p2pvod::workload;
namespace an = p2pvod::analysis;

// ------------------------------------------------ Lemma 1 equivalence sweep

struct Lemma1Params {
  std::uint32_t boxes;
  std::uint32_t requests;
  std::uint32_t max_capacity;
  double edge_prob;
  std::uint64_t seed;
};

class Lemma1Sweep : public ::testing::TestWithParam<Lemma1Params> {};

TEST_P(Lemma1Sweep, FlowFeasibilityEqualsHallCondition) {
  const auto p = GetParam();
  p2pvod::util::Rng rng(p.seed);
  for (int trial = 0; trial < 20; ++trial) {
    f::ConnectionProblem problem(p.boxes);
    for (std::uint32_t b = 0; b < p.boxes; ++b) {
      problem.set_capacity(
          b, static_cast<std::uint32_t>(rng.next_below(p.max_capacity + 1)));
    }
    f::CsrProblem csr;
    csr.ensure_row(p.requests - 1);
    for (std::uint32_t r = 0; r < p.requests; ++r) {
      std::vector<std::uint32_t> cands;
      for (std::uint32_t b = 0; b < p.boxes; ++b) {
        if (rng.next_bool(p.edge_prob)) {
          cands.push_back(b);
          csr.add_source(r, b);
        }
      }
      problem.add_request(std::move(cands));
    }
    f::CsrMatcher matcher(p.boxes);
    matcher.ensure_rows(p.requests);
    bool by_csr = true;
    for (std::uint32_t r = 0; r < p.requests; ++r) {
      if (!matcher.augment(csr, problem.capacities(), r)) by_csr = false;
    }
    const bool by_flow = problem.solve().complete;
    const bool by_hall = f::HallChecker::feasible(problem);
    ASSERT_EQ(by_flow, by_hall);
    ASSERT_EQ(by_csr, by_hall);
  }
}

INSTANTIATE_TEST_SUITE_P(
    InstanceFamilies, Lemma1Sweep,
    ::testing::Values(Lemma1Params{4, 6, 1, 0.3, 101},
                      Lemma1Params{4, 8, 2, 0.25, 202},
                      Lemma1Params{6, 10, 1, 0.2, 303},
                      Lemma1Params{6, 12, 3, 0.35, 404},
                      Lemma1Params{8, 14, 2, 0.15, 505},
                      Lemma1Params{3, 9, 2, 0.5, 606},
                      Lemma1Params{10, 16, 1, 0.12, 707}));

// ------------------------------------------------ allocation invariant sweep

struct AllocParams {
  a::Scheme scheme;
  std::uint32_t n;
  std::uint32_t m;
  std::uint32_t c;
  std::uint32_t k;
  std::uint64_t seed;
};

class AllocationSweep : public ::testing::TestWithParam<AllocParams> {};

TEST_P(AllocationSweep, StructuralInvariantsHold) {
  const auto p = GetParam();
  const m::Catalog catalog(p.m, p.c, 16);
  const auto profile = m::CapacityProfile::homogeneous(p.n, 1.5, 6.0);
  p2pvod::util::Rng rng(p.seed);
  const auto allocation =
      a::make_allocator(p.scheme)->allocate(catalog, profile, p.k, rng);

  allocation.check_integrity(&profile, p.c);
  EXPECT_EQ(allocation.stripe_count(), p.m * p.c);
  // Every stripe is stored somewhere (k >= 1 and no replica loss).
  for (m::StripeId stripe = 0; stripe < allocation.stripe_count(); ++stripe)
    ASSERT_GE(allocation.holders(stripe).size(), 1u);
  // Total distinct replicas bounded by k·m·c.
  std::uint64_t total = 0;
  for (m::StripeId stripe = 0; stripe < allocation.stripe_count(); ++stripe)
    total += allocation.holders(stripe).size();
  if (p.scheme != a::Scheme::kFullReplication) {
    EXPECT_LE(total, static_cast<std::uint64_t>(p.k) * p.m * p.c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, AllocationSweep,
    ::testing::Values(
        AllocParams{a::Scheme::kPermutation, 16, 24, 4, 4, 1},
        AllocParams{a::Scheme::kPermutation, 16, 24, 4, 4, 2},
        AllocParams{a::Scheme::kPermutation, 32, 8, 2, 16, 3},
        AllocParams{a::Scheme::kIndependent, 16, 24, 4, 4, 4},
        AllocParams{a::Scheme::kIndependent, 16, 24, 4, 4, 5},
        AllocParams{a::Scheme::kIndependent, 32, 48, 2, 4, 6},
        AllocParams{a::Scheme::kRoundRobin, 16, 24, 4, 4, 7},
        AllocParams{a::Scheme::kRoundRobin, 32, 8, 2, 16, 8},
        AllocParams{a::Scheme::kFullReplication, 16, 20, 4, 1, 9},
        AllocParams{a::Scheme::kFullReplication, 12, 12, 3, 1, 10}));

// ------------------------------------------------ threshold monotonicity

class UploadSweep : public ::testing::TestWithParam<double> {};

// Feasibility against the full adversarial suite must improve with u; we pin
// the expected verdict per u value (deterministic seeds).
TEST_P(UploadSweep, SuccessConsistentWithThresholdSide) {
  const double u = GetParam();
  an::TrialSpec spec;
  spec.n = 24;
  spec.u = u;
  spec.d = 4.0;
  spec.mu = 1.3;
  spec.c = 4;
  spec.k = 6;
  spec.duration = 10;
  spec.rounds = 30;
  spec.suite = an::WorkloadSuite::kAvoider;
  const bool ok = an::Calibrator::run_trial(spec, 90210);
  if (u < 1.0) {
    EXPECT_FALSE(ok) << "u=" << u << " should be starved by the avoider";
  }
  if (u >= 2.0) {
    EXPECT_TRUE(ok) << "u=" << u << " should absorb the avoider";
  }
}

INSTANTIATE_TEST_SUITE_P(AcrossThreshold, UploadSweep,
                         ::testing::Values(0.5, 0.75, 0.9, 2.0, 2.5, 3.0));

// ------------------------------------------------ replication monotonicity

class ReplicationSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ReplicationSweep, MoreReplicasNeverHurtFlashCrowd) {
  const std::uint32_t k = GetParam();
  const std::uint32_t n = 32, c = 4;
  const m::Catalog catalog(16, c, 12);
  const auto profile = m::CapacityProfile::homogeneous(n, 1.5, 4.0);
  p2pvod::util::Rng rng(31415);
  const auto allocation =
      a::make_allocator(a::Scheme::kPermutation)
          ->allocate(catalog, profile, k, rng);
  s::PreloadingStrategy strategy;
  s::Simulator sim(catalog, profile, allocation, strategy);
  w::FlashCrowd crowd(5, 1.6);
  const auto report = sim.run(crowd, 36);
  // k >= 4 absorbs this crowd (empirical anchor for this seed family).
  if (k >= 4) {
    EXPECT_TRUE(report.success) << "k=" << k;
  }
}

// k is capped at 8: k·m·c = 8·16·4 = 512 exactly fills the d·n·c = 512 slots.
INSTANTIATE_TEST_SUITE_P(KValues, ReplicationSweep,
                         ::testing::Values(4u, 5u, 6u, 8u));

// ------------------------------------------------ matcher agreement sweep

struct MatcherParams {
  std::uint32_t n;
  std::uint32_t m;
  std::uint32_t c;
  std::uint32_t k;
  double zipf_alpha;
  std::uint64_t seed;
};

class MatcherSweep : public ::testing::TestWithParam<MatcherParams> {};

TEST_P(MatcherSweep, IncrementalAlwaysMatchesReference) {
  const auto p = GetParam();
  const m::Catalog catalog(p.m, p.c, 8);
  const auto profile = m::CapacityProfile::homogeneous(p.n, 2.0, 5.0);
  p2pvod::util::Rng rng(p.seed);
  const auto allocation =
      a::make_allocator(a::Scheme::kPermutation)
          ->allocate(catalog, profile, p.k, rng);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.verify_incremental = true;  // throws on any disagreement
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  w::ZipfDemand zipf(p.m, p.zipf_alpha, 0.25, p.seed ^ 0xabcdefULL);
  EXPECT_NO_THROW({
    const auto report = sim.run(zipf, 30);
    (void)report;
  });
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadFamilies, MatcherSweep,
    ::testing::Values(MatcherParams{16, 8, 2, 6, 0.0, 11},
                      MatcherParams{16, 8, 2, 6, 1.0, 22},
                      MatcherParams{24, 12, 4, 6, 0.8, 33},
                      MatcherParams{32, 16, 2, 8, 1.2, 44}));

// ------------------------------------------------ growth limiter safety

class MuSweep : public ::testing::TestWithParam<double> {};

TEST_P(MuSweep, LimitedFloodNeverExceedsAnchoredBound) {
  const double mu = GetParam();
  const std::uint32_t n = 64;
  const m::Catalog catalog(4, 2, 24);
  const auto profile = m::CapacityProfile::homogeneous(n, 8.0, 8.0);
  p2pvod::util::Rng rng(5);
  const auto allocation =
      a::make_allocator(a::Scheme::kPermutation)
          ->allocate(catalog, profile, 8, rng);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;  // observe sizes even under stress
  s::Simulator sim(catalog, profile, allocation, strategy, options);

  w::FlashCrowd crowd(0, /*mu inside generator*/ 1e9);  // unbounded flood
  w::GrowthLimiter limited(crowd, mu);

  std::vector<std::uint32_t> sizes;
  for (int t = 0; t < 10; ++t) {
    const auto demands = limited.demands(sim);
    sim.step(demands);
    sizes.push_back(sim.swarms().size(0));
  }
  // Verify the paper's multi-step rule f(t+i) <= ceil(max(f(t),1)·µ^i)
  // for every anchor pair (t, t+i).
  for (std::size_t t = 0; t < sizes.size(); ++t) {
    for (std::size_t i = 1; t + i < sizes.size(); ++i) {
      const double anchor = std::max<double>(1.0, sizes[t]);
      const double bound =
          std::ceil(anchor * std::pow(mu, static_cast<double>(i)) - 1e-9);
      ASSERT_LE(static_cast<double>(sizes[t + i]), bound)
          << "mu=" << mu << " t=" << t << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GrowthRates, MuSweep,
                         ::testing::Values(1.0, 1.2, 1.4, 1.7, 2.0, 3.0));
