// Unit tests for src/analysis: Theorem 1/2 formula transcription, the
// first-moment evaluator, obstruction probes, the §1.3 impossibility
// certificate, and the Monte-Carlo calibrator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "alloc/permutation.hpp"
#include "analysis/bounds.hpp"
#include "analysis/calibrate.hpp"
#include "analysis/first_moment.hpp"
#include "analysis/impossibility.hpp"
#include "analysis/obstruction.hpp"
#include "sim/simulator.hpp"
#include "util/logmath.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/adversarial.hpp"
#include "workload/distinct.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/limiter.hpp"

namespace an = p2pvod::analysis;
namespace m = p2pvod::model;
namespace a = p2pvod::alloc;

constexpr double kE = 2.718281828459045;

// ----------------------------------------------------------------- theorem 1

TEST(Theorem1, MinCIsSmallestIntegerAboveBound) {
  // u=1.5, µ=1.2: (2·1.44−1)/0.5 = 3.76 -> c = 4.
  EXPECT_EQ(an::Theorem1::min_c(1.5, 1.2), 4u);
  // Exactly integral boundary: u=2, µ=1: (2−1)/1 = 1 -> strict: c = 2.
  EXPECT_EQ(an::Theorem1::min_c(2.0, 1.0), 2u);
  EXPECT_EQ(an::Theorem1::min_c(0.9, 1.2), 0u);  // below threshold
}

TEST(Theorem1, RecommendedCDoublesTheBound) {
  // c = ⌈2(2µ²−1)/(u−1)⌉ = ⌈7.52⌉ = 8 for u=1.5, µ=1.2.
  EXPECT_EQ(an::Theorem1::recommended_c(1.5, 1.2), 8u);
  EXPECT_GE(an::Theorem1::recommended_c(1.5, 1.2),
            an::Theorem1::min_c(1.5, 1.2));
}

TEST(Theorem1, NuMatchesHandComputation) {
  // ν = 1/(c+2µ²−1) − 1/(uc); c=8, µ=1.2, u=1.5:
  // 1/(8+1.88) − 1/12 = 0.101214... − 0.083333... = 0.0178...
  const double nu = an::Theorem1::nu(1.5, 1.2, 8);
  EXPECT_NEAR(nu, 1.0 / 9.88 - 1.0 / 12.0, 1e-12);
  EXPECT_GT(nu, 0.0);
}

TEST(Theorem1, NuNegativeWhenCTooSmall) {
  // c=3 < min_c=4 for (u=1.5, µ=1.2): uc = 4.5 < c+2µ²−1 = 4.88.
  EXPECT_LT(an::Theorem1::nu(1.5, 1.2, 3), 0.0);
}

TEST(Theorem1, UPrimeFloors) {
  EXPECT_NEAR(an::Theorem1::u_prime(1.5, 8), 12.0 / 8.0, 1e-12);
  EXPECT_NEAR(an::Theorem1::u_prime(1.3, 3), 3.0 / 3.0, 1e-12);  // ⌊3.9⌋/3
}

TEST(Theorem1, DPrimeTakesMax) {
  EXPECT_NEAR(an::Theorem1::d_prime(4.0, 1.5), 4.0, 1e-12);
  EXPECT_NEAR(an::Theorem1::d_prime(1.0, 1.5), kE, 1e-12);
  EXPECT_NEAR(an::Theorem1::d_prime(1.0, 5.0), 5.0, 1e-12);
}

TEST(Theorem1, KBoundHandComputation) {
  // k = 5/ν · log d′ / log u′ with c=8, u=1.5, d=4, µ=1.2.
  const double nu = an::Theorem1::nu(1.5, 1.2, 8);
  const double expected = 5.0 / nu * std::log(4.0) / std::log(1.5);
  EXPECT_NEAR(an::Theorem1::k_bound(1.5, 4.0, 1.2, 8), expected, 1e-9);
}

TEST(Theorem1, KBoundInfiniteWhenInvalid) {
  EXPECT_TRUE(std::isinf(an::Theorem1::k_bound(1.5, 4.0, 1.2, 3)));
  // u'=1 (u=1.3, c=3 -> ⌊3.9⌋/3 = 1): log u' = 0.
  EXPECT_TRUE(std::isinf(an::Theorem1::k_bound(1.3, 4.0, 1.0, 3)));
}

TEST(Theorem1, ProofBoundAtLeastSimpleBound) {
  // k_proof uses max{5, log_{u'}(e⁴d'u')} >= 5·log_{u'}d'/... not directly
  // comparable, but both must be positive and finite in the valid regime.
  const double simple = an::Theorem1::k_bound(1.5, 4.0, 1.2, 8);
  const double proof = an::Theorem1::k_bound_proof(1.5, 4.0, 1.2, 8);
  EXPECT_GT(simple, 0.0);
  EXPECT_GT(proof, 0.0);
  EXPECT_TRUE(std::isfinite(proof));
}

TEST(Theorem1, EvaluateAssemblesConsistently) {
  const auto b = an::Theorem1::evaluate({1.5, 4.0, 1.2});
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(b.c, 8u);
  EXPECT_EQ(b.k, static_cast<std::uint32_t>(std::ceil(b.k_real)));
  EXPECT_GT(b.catalog(10000), 0u);
  EXPECT_EQ(b.catalog(10000),
            static_cast<std::uint32_t>(4.0 * 10000 / b.k));
}

TEST(Theorem1, EvaluateInvalidBelowThreshold) {
  const auto b = an::Theorem1::evaluate({0.9, 4.0, 1.2});
  EXPECT_FALSE(b.valid);
  EXPECT_EQ(b.catalog(1000), 0u);
}

TEST(Theorem1, CountsBeyond32BitsMakeTheBoundsInvalid) {
  // u = 1 + 1e-10: c would be about 1.9e10 (min) and 3.8e10 (recommended),
  // too large for 32 bits. "No valid c" is 0, as below the threshold.
  EXPECT_EQ(an::Theorem1::min_c(1.0000000001, 1.2), 0u);
  EXPECT_EQ(an::Theorem1::recommended_c(1.0000000001, 1.2), 0u);
  const auto no_c = an::Theorem1::evaluate({1.0000000001, 4.0, 1.2});
  EXPECT_FALSE(no_c.valid);
  EXPECT_EQ(no_c.c, 0u);
  // u = 1 + 1e-6: c ≈ 2e6 fits, but ν ≈ 2.5e-13 and log u′ ≈ 1e-6 put k
  // near 2.8e19.
  const auto no_k = an::Theorem1::evaluate({1.000001, 4.0, 1.0});
  EXPECT_EQ(no_k.c, an::Theorem1::recommended_c(1.000001, 1.0));
  EXPECT_GT(no_k.k_real, 4294967295.0);
  EXPECT_FALSE(no_k.valid);
  EXPECT_EQ(no_k.k, 0u);
  EXPECT_EQ(no_k.catalog(1000), 0u);
  // A valid bound whose catalog d·n/k does not fit throws.
  const auto huge_d = an::Theorem1::evaluate({1.5, 1e30, 1.2});
  ASSERT_TRUE(huge_d.valid);
  EXPECT_THROW((void)huge_d.catalog(1000), std::out_of_range);
}

TEST(Theorem1, CatalogLinearInN) {
  const auto b = an::Theorem1::evaluate({1.5, 4.0, 1.2});
  const auto m1 = b.catalog(10000);
  const auto m2 = b.catalog(20000);
  ASSERT_GT(m1, 0u);
  // Exactly d·n/k up to integer truncation (k ~ 1000 here, so m is small
  // and truncation is visible; allow one-unit slack on each side).
  EXPECT_NEAR(static_cast<double>(m2) / m1, 2.0, 0.06);
}

TEST(Theorem1, ClosedFormVanishesAsCube) {
  // m(u) ~ (u-1)³ as u -> 1 (Conclusion): ratio m(1+2ε)/m(1+ε) -> 8.
  const double eps = 1e-3;
  const double m1 = an::Theorem1::catalog_closed_form(100000, 1.0 + eps, 4.0,
                                                      1.2);
  const double m2 = an::Theorem1::catalog_closed_form(100000, 1.0 + 2 * eps,
                                                      4.0, 1.2);
  EXPECT_GT(m1, 0.0);
  EXPECT_NEAR(m2 / m1, 8.0, 0.1);
}

TEST(Theorem1, Lemma2ExpansionFormula) {
  // i=100, i1=2, c=8, µ=1.2: (100 − 9.88·2)/(8+0.88) = 80.24/8.88.
  EXPECT_NEAR(an::Theorem1::lemma2_expansion(100, 2, 8, 1.2), 80.24 / 8.88,
              1e-9);
}

TEST(Theorem1, KappaAndDelta) {
  const double nu = an::Theorem1::nu(1.5, 1.2, 8);
  EXPECT_NEAR(an::Theorem1::kappa(1.5, 1.2, 8, 100), nu * 100 - 2.0, 1e-12);
  EXPECT_NEAR(an::Theorem1::delta(1.5, 4.0, 8), 4.0 * 4.0 * kE * kE / 1.5,
              1e-9);
}

// ----------------------------------------------------------------- theorem 2

TEST(Theorem2, MinAndRecommendedC) {
  // u*=1.5, µ=1.1: 4µ⁴/0.5 = 11.712... -> min_c = 12; 10µ⁴/0.5 = 29.28 -> 30.
  EXPECT_EQ(an::Theorem2::min_c(1.5, 1.1), 12u);
  EXPECT_EQ(an::Theorem2::recommended_c(1.5, 1.1), 30u);
}

TEST(Theorem2, NuAndUPrime) {
  const double mu4 = std::pow(1.1, 4.0);
  const double nu = an::Theorem2::nu(1.1, 30);
  EXPECT_NEAR(nu, 1.0 / (30 + 2 * mu4 - 1) - 1.0 / (30 + 3 * mu4), 1e-12);
  EXPECT_GT(nu, 0.0);
  EXPECT_NEAR(an::Theorem2::u_prime(1.1, 30), (30 + 3 * mu4) / 30.0, 1e-12);
  EXPECT_GT(an::Theorem2::u_prime(1.1, 30), 1.0);
}

TEST(Theorem2, EvaluateValidInRange) {
  const auto b = an::Theorem2::evaluate({1.5, 4.0, 1.1});
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(b.c, 30u);
  EXPECT_GT(b.k, 0u);
  EXPECT_GT(b.catalog(100000), 0u);
}

TEST(Theorem2, CountsBeyond32BitsMakeTheBoundsInvalid) {
  // u* = 1 + 1e-10, µ = 1.1: c would be about 5.9e10 (min), 1.5e11
  // (recommended).
  EXPECT_EQ(an::Theorem2::min_c(1.0000000001, 1.1), 0u);
  EXPECT_EQ(an::Theorem2::recommended_c(1.0000000001, 1.1), 0u);
  EXPECT_FALSE(an::Theorem2::evaluate({1.0000000001, 4.0, 1.1}).valid);
  // u* = 1.001, µ = 1: c ≈ 10^4 fits, but k ≈ 1.2e12 does not.
  const auto no_k = an::Theorem2::evaluate({1.001, 4.0, 1.0});
  EXPECT_GT(no_k.c, 0u);
  EXPECT_GT(no_k.k_real, 4294967295.0);
  EXPECT_FALSE(no_k.valid);
  EXPECT_EQ(no_k.k, 0u);
}

TEST(Theorem2, ClosedFormPositiveOnlyAboveOne) {
  EXPECT_GT(an::Theorem2::catalog_closed_form(1000, 1.5, 4.0, 1.1), 0.0);
  EXPECT_EQ(an::Theorem2::catalog_closed_form(1000, 1.0, 4.0, 1.1), 0.0);
}

TEST(Theorem2, CatalogShrinksWithMu) {
  const double loose = an::Theorem2::catalog_closed_form(10000, 1.5, 4, 1.05);
  const double tight = an::Theorem2::catalog_closed_form(10000, 1.5, 4, 1.3);
  EXPECT_GT(loose, tight);
}

// ----------------------------------------------------------------- first moment

namespace {
an::FirstMomentParams base_params() {
  an::FirstMomentParams p;
  p.n = 200;
  p.c = 8;
  p.u = 1.5;
  p.d = 4.0;
  p.mu = 1.2;
  p.k = 30;
  p.m = static_cast<std::uint32_t>(p.d * p.n / p.k);
  return p;
}
}  // namespace

TEST(FirstMoment, TermZeroBelowNuFraction) {
  const auto p = base_params();
  // i1 = 1, i large: i1 <= ν i -> -inf (Lemma 4 case 1).
  EXPECT_TRUE(std::isinf(an::FirstMoment::log_term(p, 1000, 1)));
  EXPECT_LT(an::FirstMoment::log_term(p, 1000, 1), 0.0);
}

TEST(FirstMoment, TermMatchesHandFormula) {
  const auto p = base_params();
  const double up = an::Theorem1::u_prime(p.u, p.c);
  const double unc = up * p.n * p.c;
  const std::uint64_t i = 40, i1 = 35;
  const double expected = 40.0 * std::log(unc * kE / 40.0) +
                          static_cast<double>(p.k) * 35.0 *
                              std::log(40.0 / unc);
  EXPECT_NEAR(an::FirstMoment::log_term(p, i, i1), expected, 1e-9);
}

TEST(FirstMoment, MultisetCountFormula) {
  const auto p = base_params();
  const double expected =
      p2pvod::util::log_binomial(static_cast<std::int64_t>(p.m) * p.c, 5) +
      p2pvod::util::log_binomial(9, 4);
  EXPECT_NEAR(an::FirstMoment::log_multiset_count(p, 10, 5), expected, 1e-9);
}

TEST(FirstMoment, BoundDecreasesInK) {
  auto p = base_params();
  p.k = 20;
  p.m = 40;
  const double loose = an::FirstMoment::log_union_bound(p);
  p.k = 40;
  const double tight = an::FirstMoment::log_union_bound(p);
  EXPECT_LT(tight, loose);
}

TEST(FirstMoment, BoundVanishesForLargeK) {
  // At n=200 the union bound needs k in the hundreds (the theorem's k is
  // Θ(ν⁻¹ log d′) with a large constant; the bound is asymptotic in n).
  auto p = base_params();
  p.k = 300;
  p.m = static_cast<std::uint32_t>(p.d * p.n / p.k);
  EXPECT_LT(an::FirstMoment::log_union_bound(p), 0.0);
  EXPECT_LT(an::FirstMoment::probability_bound(p), 1.0);
}

TEST(FirstMoment, ProbabilityBoundClampedToOne) {
  auto p = base_params();
  p.k = 1;  // hopeless replication: bound blows past 1
  p.m = static_cast<std::uint32_t>(p.d * p.n);
  EXPECT_EQ(an::FirstMoment::probability_bound(p), 1.0);
}

TEST(FirstMoment, MinKForBoundFindsThreshold) {
  auto p = base_params();
  const auto k = an::FirstMoment::min_k_for_bound(p, 0.01, 1, 600);
  ASSERT_GT(k, 0u);
  p.k = k;
  p.m = std::max(1u, static_cast<std::uint32_t>(p.d * p.n / k));
  EXPECT_LE(an::FirstMoment::log_union_bound(p), std::log(0.01) + 1e-9);
  // And k-1 must not satisfy it (minimality).
  if (k > 1) {
    p.k = k - 1;
    p.m = std::max(1u, static_cast<std::uint32_t>(p.d * p.n / (k - 1)));
    EXPECT_GT(an::FirstMoment::log_union_bound(p), std::log(0.01));
  }
}

TEST(FirstMoment, RejectsZeroParams) {
  an::FirstMomentParams p;
  p.n = 0;
  EXPECT_THROW((void)an::FirstMoment::log_union_bound(p),
               std::invalid_argument);
}

// ----------------------------------------------------------------- obstruction

TEST(Obstruction, BurstFeasibleWithAmpleCapacity) {
  const m::Catalog catalog(4, 2, 8);
  const auto profile = m::CapacityProfile::homogeneous(6, 4.0, 4.0);
  p2pvod::util::Rng rng(1);
  const auto alloc =
      a::PermutationAllocator().allocate(catalog, profile, 3, rng);
  const std::vector<m::VideoId> demands(6, 0);  // everyone watches video 0
  EXPECT_FALSE(
      an::ObstructionSearch::probe_burst(catalog, profile, alloc, demands)
          .has_value());
}

TEST(Obstruction, BurstInfeasibleWhenUploadStarved) {
  const m::Catalog catalog(4, 2, 8);
  const auto profile = m::CapacityProfile::homogeneous(6, 0.5, 4.0);
  p2pvod::util::Rng rng(1);
  const auto alloc =
      a::PermutationAllocator().allocate(catalog, profile, 2, rng);
  // All six boxes burst on all videos' worth of demand: u=0.5 -> 1 slot each,
  // 6 slots total, but ~6*2=12 stripe requests.
  std::vector<m::VideoId> demands(6);
  for (m::BoxId b = 0; b < 6; ++b) demands[b] = b % 4;
  const auto witness =
      an::ObstructionSearch::probe_burst(catalog, profile, alloc, demands);
  ASSERT_TRUE(witness.has_value());
  EXPECT_GT(witness->unserved_requests, 0u);
}

TEST(Obstruction, AvoiderAssignmentAvoidsLocalData) {
  const m::Catalog catalog(8, 2, 8);
  const auto profile = m::CapacityProfile::homogeneous(4, 1.0, 8.0);
  p2pvod::util::Rng rng(3);
  const auto alloc =
      a::PermutationAllocator().allocate(catalog, profile, 2, rng);
  const auto demands =
      an::ObstructionSearch::avoider_assignment(catalog, alloc, rng);
  for (m::BoxId b = 0; b < 4; ++b) {
    if (demands[b] == m::kInvalidVideo) continue;
    EXPECT_FALSE(alloc.box_has_video_data(b, catalog, demands[b]));
  }
}

TEST(Obstruction, ExhaustiveFindsColdStartObstruction) {
  // 2 boxes, 2 videos, c=1, k=1: video stripes on distinct boxes with u=0
  // uploads nothing -> any cross demand is an obstruction.
  const m::Catalog catalog(2, 1, 4);
  const auto profile = m::CapacityProfile::homogeneous(2, 0.0, 1.0);
  const a::Allocation alloc(
      2, 2, a::group_by_stripe(2, {{0, 0}, {1, 1}}));
  const auto witness =
      an::ObstructionSearch::exhaustive(catalog, profile, alloc);
  ASSERT_TRUE(witness.has_value());
}

TEST(Obstruction, ExhaustiveCleanWhenSelfSufficient) {
  // Every box holds every stripe: demands never need the network.
  const m::Catalog catalog(2, 1, 4);
  const auto profile = m::CapacityProfile::homogeneous(2, 1.0, 2.0);
  const a::Allocation alloc(
      2, 2, a::group_by_stripe(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}}));
  EXPECT_FALSE(an::ObstructionSearch::exhaustive(catalog, profile, alloc)
                   .has_value());
}

TEST(Obstruction, ExhaustiveRespectsBudget) {
  const m::Catalog catalog(10, 1, 4);
  const auto profile = m::CapacityProfile::homogeneous(20, 1.0, 10.0);
  const a::Allocation alloc(
      20, 10, a::group_by_stripe(10, {{0, 0}}));
  EXPECT_THROW((void)an::ObstructionSearch::exhaustive(catalog, profile,
                                                       alloc, 1000),
               std::invalid_argument);
}

TEST(Obstruction, MonteCarloCountsInfeasibleBursts) {
  const m::Catalog catalog(6, 2, 8);
  const auto profile = m::CapacityProfile::homogeneous(6, 0.5, 2.0);
  p2pvod::util::Rng rng(7);
  const auto alloc =
      a::PermutationAllocator().allocate(catalog, profile, 2, rng);
  const auto result =
      an::ObstructionSearch::monte_carlo(catalog, profile, alloc, 20, rng);
  EXPECT_EQ(result.trials, 20u);
  EXPECT_GT(result.infeasible, 0u);  // u=0.5 cannot serve full bursts
  EXPECT_TRUE(result.witness.has_value());
}

// ----------------------------------------------------------------- impossibility

TEST(Impossibility, CertificateAppliesBelowThreshold) {
  const m::Catalog catalog(9, 2, 8);  // m=9 > d_max·c = 8
  const auto profile = m::CapacityProfile::homogeneous(10, 0.8, 4.0);
  const auto cert = an::ImpossibilityAnalyzer::analyze(profile, catalog);
  EXPECT_TRUE(cert.applies);
  EXPECT_EQ(cert.catalog_limit, 8u);
  EXPECT_NEAR(cert.aggregate_upload, 8.0, 1e-12);
  EXPECT_NE(cert.explanation.find("must stall"), std::string::npos);
}

TEST(Impossibility, NotApplicableAboveThreshold) {
  const m::Catalog catalog(100, 2, 8);
  const auto profile = m::CapacityProfile::homogeneous(10, 1.5, 4.0);
  EXPECT_FALSE(an::ImpossibilityAnalyzer::analyze(profile, catalog).applies);
}

TEST(Impossibility, NotApplicableInConstantRegime) {
  const m::Catalog catalog(8, 2, 8);  // m = d_max·c exactly
  const auto profile = m::CapacityProfile::homogeneous(10, 0.8, 4.0);
  const auto cert = an::ImpossibilityAnalyzer::analyze(profile, catalog);
  EXPECT_FALSE(cert.applies);
}

TEST(Impossibility, ConstructsAvoiderWhenCatalogLarge) {
  // d=8, c=2: a box holds at most 16 stripes, so with m=20 videos every box
  // necessarily misses at least four videos entirely.
  const m::Catalog catalog(20, 2, 8);
  const auto profile = m::CapacityProfile::homogeneous(5, 0.8, 8.0);
  p2pvod::util::Rng rng(5);
  const auto alloc =
      a::PermutationAllocator().allocate(catalog, profile, 1, rng);
  const auto demands =
      an::ImpossibilityAnalyzer::construct_avoider_demands(catalog, alloc);
  ASSERT_TRUE(demands.has_value());
  for (m::BoxId b = 0; b < 5; ++b)
    EXPECT_FALSE(alloc.box_has_video_data(b, catalog, (*demands)[b]));
}

TEST(Impossibility, AvoiderImpossibleWhenFullyReplicated) {
  const m::Catalog catalog(2, 1, 4);
  const a::Allocation alloc(
      2, 2, a::group_by_stripe(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}}));
  EXPECT_FALSE(
      an::ImpossibilityAnalyzer::construct_avoider_demands(catalog, alloc)
          .has_value());
}

// ----------------------------------------------------------------- calibrate

TEST(Calibrate, TrialSpecCatalogIdentity) {
  an::TrialSpec spec;
  spec.n = 100;
  spec.d = 4.0;
  spec.k = 8;
  EXPECT_EQ(spec.catalog(), 50u);
  spec.m_override = 7;
  EXPECT_EQ(spec.catalog(), 7u);
}

TEST(Calibrate, GenerousSystemSucceeds) {
  an::TrialSpec spec;
  spec.n = 24;
  spec.u = 3.0;
  spec.d = 4.0;
  spec.mu = 1.5;
  spec.c = 4;
  spec.k = 8;
  spec.duration = 12;
  spec.rounds = 36;
  EXPECT_TRUE(an::Calibrator::run_trial(spec, 42));
}

TEST(Calibrate, StarvedSystemFails) {
  an::TrialSpec spec;
  spec.n = 24;
  spec.u = 0.5;  // below threshold
  spec.d = 2.0;
  spec.mu = 1.5;
  spec.c = 4;
  spec.k = 2;
  spec.duration = 12;
  spec.rounds = 36;
  spec.suite = an::WorkloadSuite::kAvoider;
  EXPECT_FALSE(an::Calibrator::run_trial(spec, 42));
}

TEST(Calibrate, SuccessRateBounds) {
  an::TrialSpec spec;
  spec.n = 16;
  spec.u = 3.0;
  spec.d = 4.0;
  spec.mu = 1.3;
  spec.c = 4;
  spec.k = 8;
  spec.duration = 8;
  spec.rounds = 24;
  const auto rate = an::Calibrator::success_rate(spec, 6, 99);
  EXPECT_GE(rate.estimate, 0.0);
  EXPECT_LE(rate.estimate, 1.0);
  EXPECT_LE(rate.lower, rate.estimate);
  EXPECT_GE(rate.upper, rate.estimate);
}

TEST(Calibrate, SuiteNames) {
  EXPECT_STREQ(an::suite_name(an::WorkloadSuite::kAvoider), "avoider");
  EXPECT_STREQ(an::suite_name(an::WorkloadSuite::kFull), "full");
}

TEST(Calibrate, MaxCatalogProbesASingleBoxCatalogOnce) {
  // ⌊d·n⌋ = 1: the m = 1 probe is also the m_max probe, so the search runs
  // its trials once and lists it once.
  an::TrialSpec spec;
  spec.n = 1;
  spec.d = 1.5;
  const auto result = an::Calibrator::max_catalog(spec, 0.0, 2, 7);
  EXPECT_EQ(result.m, 1u);
  ASSERT_EQ(result.explored.size(), 1u);
  EXPECT_EQ(result.explored[0].first, 1u);
}

TEST(Calibrate, MinKRejectsBadRange) {
  an::TrialSpec spec;
  EXPECT_THROW((void)an::Calibrator::min_feasible_k(spec, 0, 4, 1.0, 1, 1),
               std::invalid_argument);
}

// --------------------------------------------- calibration across pool sizes

namespace {

/// Small-but-real calibration spec: cheap enough to search repeatedly, rich
/// enough that the doubling + binary search takes several probes.
an::TrialSpec threads_spec(double u, double d) {
  an::TrialSpec spec;
  spec.n = 12;
  spec.u = u;
  spec.d = d;
  spec.mu = 1.3;
  spec.c = 2;
  spec.duration = 4;
  spec.rounds = 8;
  spec.suite = an::WorkloadSuite::kFlashCrowd;
  return spec;
}

}  // namespace

// min_feasible_k / max_catalog return the same result on pools of 1, 4 and 8
// threads — including the explored (value, rate) trace, which lists every
// probe in evaluation order. Each probe's trials run in parallel; the probe
// sequence and every rate are functions of (spec, trials, seed) alone.
TEST(CalibrateThreads, SearchesIdenticalAtOneFourEightThreads) {
  const std::uint32_t trials = 4;
  for (const double u : {0.75, 1.5, 3.0}) {
    for (const double d : {2.0, 4.0}) {
      const an::TrialSpec spec = threads_spec(u, d);
      const auto k_hi =
          static_cast<std::uint32_t>(spec.d * static_cast<double>(spec.n));
      p2pvod::util::ThreadPool reference_pool(1);
      const auto reference_min = an::Calibrator::min_feasible_k(
          spec, 1, k_hi, 1.0, trials, 0xCAFE, &reference_pool);
      const auto reference_max = an::Calibrator::max_catalog(
          spec, 1.0, trials, 0xCAFE, &reference_pool);
      EXPECT_FALSE(reference_min.explored.empty());
      EXPECT_FALSE(reference_max.explored.empty());

      for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
        p2pvod::util::ThreadPool pool(threads);
        const auto min_k = an::Calibrator::min_feasible_k(
            spec, 1, k_hi, 1.0, trials, 0xCAFE, &pool);
        EXPECT_EQ(min_k.k, reference_min.k)
            << "u=" << u << " d=" << d << " threads=" << threads;
        EXPECT_EQ(min_k.catalog, reference_min.catalog);
        EXPECT_EQ(min_k.explored, reference_min.explored)
            << "u=" << u << " d=" << d << " threads=" << threads;

        const auto max_m = an::Calibrator::max_catalog(spec, 1.0, trials,
                                                       0xCAFE, &pool);
        EXPECT_EQ(max_m.m, reference_max.m)
            << "u=" << u << " d=" << d << " threads=" << threads;
        EXPECT_EQ(max_m.k, reference_max.k);
        EXPECT_EQ(max_m.explored, reference_max.explored)
            << "u=" << u << " d=" << d << " threads=" << threads;
      }
    }
  }
}

TEST(CalibrateThreads, RejectsBadRange) {
  an::TrialSpec spec;
  p2pvod::util::ThreadPool pool(4);
  EXPECT_THROW((void)an::Calibrator::min_feasible_k(spec, 0, 4, 1.0, 1, 1,
                                                    &pool),
               std::invalid_argument);
  EXPECT_THROW((void)an::Calibrator::min_feasible_k(spec, 5, 4, 1.0, 1, 1,
                                                    &pool),
               std::invalid_argument);
}

TEST(CalibrateThreads, DegenerateCatalogAndZeroTrials) {
  // n*d == 0 (empty catalog bound) probes nothing; trials == 0 gives every
  // probe rate 0, the same search at every pool size, and no k.
  an::TrialSpec zero = threads_spec(1.5, 0.0);
  zero.n = 0;
  const an::TrialSpec spec = threads_spec(1.5, 2.0);
  p2pvod::util::ThreadPool serial(1);
  const auto reference =
      an::Calibrator::min_feasible_k(spec, 1, 8, 1.0, 0, 3, &serial);
  EXPECT_EQ(reference.k, 0u);
  EXPECT_FALSE(reference.explored.empty());
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    p2pvod::util::ThreadPool pool(threads);
    const auto empty = an::Calibrator::max_catalog(zero, 1.0, 2, 3, &pool);
    EXPECT_EQ(empty.m, 0u) << threads;
    EXPECT_TRUE(empty.explored.empty()) << threads;

    const auto no_trials =
        an::Calibrator::min_feasible_k(spec, 1, 8, 1.0, 0, 3, &pool);
    EXPECT_EQ(no_trials.k, reference.k) << threads;
    EXPECT_EQ(no_trials.catalog, reference.catalog) << threads;
    EXPECT_EQ(no_trials.explored, reference.explored) << threads;
  }
}

namespace {

/// A trial on new objects only: catalog, profile, allocation, and a new
/// strategy and strict simulator for each adversary. This is how
/// Calibrator::run_trial ran before trials shared a per-thread engine, kept
/// here as the oracle for the engine.
bool fresh_trial(const an::TrialSpec& spec, std::uint64_t seed) {
  const m::Catalog catalog(spec.catalog(), spec.c, spec.duration);
  const auto profile =
      m::CapacityProfile::homogeneous(spec.n, spec.u, spec.d);
  p2pvod::util::Rng rng(seed);
  const a::Allocation allocation =
      a::make_allocator(spec.scheme)->allocate(catalog, profile, spec.k, rng);

  const auto run = [&](an::WorkloadSuite which, std::uint64_t run_seed) {
    const auto strategy = p2pvod::sim::make_strategy(spec.strategy);
    p2pvod::sim::SimulatorOptions options;
    options.strict = true;
    p2pvod::sim::Simulator simulator(catalog, profile, allocation, *strategy,
                                     options);
    p2pvod::util::Rng run_rng(run_seed);
    switch (which) {
      case an::WorkloadSuite::kAvoider: {
        p2pvod::workload::AvoiderAdversary inner(run_rng.child(1).seed());
        p2pvod::workload::GrowthLimiter limited(inner, spec.mu);
        return simulator.run(limited, spec.rounds).success;
      }
      case an::WorkloadSuite::kFlashCrowd: {
        const auto video = static_cast<m::VideoId>(
            run_rng.next_below(catalog.video_count()));
        p2pvod::workload::FlashCrowd inner(video, spec.mu);
        return simulator.run(inner, spec.rounds).success;
      }
      case an::WorkloadSuite::kDistinct: {
        p2pvod::workload::DistinctVideosSweep inner(run_rng.child(2).seed(),
                                                    /*repeat=*/true);
        p2pvod::workload::GrowthLimiter limited(inner, spec.mu);
        return simulator.run(limited, spec.rounds).success;
      }
      case an::WorkloadSuite::kFull:
        break;
    }
    throw std::logic_error("fresh_trial: bad suite");
  };

  if (spec.suite != an::WorkloadSuite::kFull)
    return run(spec.suite, rng.child(10).seed());
  for (const an::WorkloadSuite which :
       {an::WorkloadSuite::kAvoider, an::WorkloadSuite::kFlashCrowd,
        an::WorkloadSuite::kDistinct}) {
    if (!run(which, rng.child(10 + static_cast<std::uint64_t>(which))
                        .seed()))
      return false;
  }
  return true;
}

/// A trial's outcome: 0 failed, 1 succeeded, 2 threw.
template <typename Trial>
char outcome_of(const Trial& trial, const an::TrialSpec& spec,
                std::uint64_t seed) {
  try {
    return trial(spec, seed) ? 1 : 0;
  } catch (const std::exception&) {
    return 2;
  }
}

}  // namespace

// Each thread runs its trials on one reused engine, reset between
// adversaries and trials, so which trials share an engine depends on the
// schedule. Every outcome must still equal a trial on new objects. The specs
// interleave n, u, k, m_override, c, both strategy kinds and every suite,
// and two of them throw inside run_trial: u = NaN when the profile is built,
// and u = 1e30 when the simulator sizes its upload slots; the trials after
// them on the same thread run on the engine they left behind.
TEST(CalibrateThreads, ReusedEnginesMatchFreshTrials) {
  an::TrialSpec base;
  base.n = 24;
  base.u = 1.0;
  base.d = 4.0;
  base.mu = 1.3;
  base.c = 4;
  base.k = 4;
  base.duration = 12;
  base.rounds = 30;
  std::vector<an::TrialSpec> specs;
  specs.push_back(base);
  {
    an::TrialSpec spec = base;
    spec.n = 40;
    spec.u = 1.25;
    spec.suite = an::WorkloadSuite::kFlashCrowd;
    specs.push_back(spec);
  }
  {
    an::TrialSpec spec = base;
    spec.n = 16;
    spec.u = 0.75;
    spec.k = 2;
    spec.suite = an::WorkloadSuite::kAvoider;
    specs.push_back(spec);
  }
  {
    an::TrialSpec spec = base;
    spec.u = std::numeric_limits<double>::quiet_NaN();
    specs.push_back(spec);
  }
  {
    an::TrialSpec spec = base;
    spec.c = 2;
    spec.m_override = 5;
    spec.strategy = p2pvod::sim::StrategyKind::kNaive;
    spec.suite = an::WorkloadSuite::kDistinct;
    specs.push_back(spec);
  }
  {
    an::TrialSpec spec = base;
    spec.n = 32;
    spec.c = 3;
    spec.k = 6;
    spec.u = 1.5;
    spec.strategy = p2pvod::sim::StrategyKind::kNaive;
    specs.push_back(spec);
  }
  {
    an::TrialSpec spec = base;
    spec.u = 1e30;
    spec.suite = an::WorkloadSuite::kFlashCrowd;
    specs.push_back(spec);
  }
  {
    an::TrialSpec spec = base;
    spec.n = 20;
    spec.m_override = 30;
    spec.k = 2;
    specs.push_back(spec);
  }

  constexpr std::size_t kTrials = 96;
  const auto spec_of = [&](std::size_t trial) -> const an::TrialSpec& {
    return specs[trial % specs.size()];
  };
  const auto seed_of = [](std::size_t trial) {
    return p2pvod::util::child_seed(0xE16, trial);
  };
  std::vector<char> expected(kTrials);
  for (std::size_t trial = 0; trial < kTrials; ++trial)
    expected[trial] = outcome_of(fresh_trial, spec_of(trial), seed_of(trial));
  std::vector<std::size_t> seen(3, 0);
  for (const char outcome : expected) ++seen[static_cast<std::size_t>(outcome)];
  EXPECT_GT(seen[0], 0u);  // failures,
  EXPECT_GT(seen[1], 0u);  // successes
  EXPECT_EQ(seen[2], 2 * kTrials / specs.size());  // and the two throwing specs

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    p2pvod::util::ThreadPool pool(threads);
    const std::vector<char> outcomes = p2pvod::util::parallel_map<char>(
        kTrials,
        [&](std::size_t trial) {
          return outcome_of(an::Calibrator::run_trial, spec_of(trial),
                            seed_of(trial));
        },
        &pool, /*grain=*/1);
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      EXPECT_EQ(outcomes[trial], expected[trial])
          << "trial " << trial << " on " << threads << " threads";
    }
  }
}
