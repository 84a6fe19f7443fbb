// Unit tests for src/core: config validation, VodSystem assembly (both
// homogeneous and heterogeneous), planner, verdict.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/config.hpp"
#include "core/planner.hpp"
#include "core/verdict.hpp"
#include "core/vod_system.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/zipf.hpp"

namespace c = p2pvod::core;
namespace m = p2pvod::model;
namespace w = p2pvod::workload;

// ----------------------------------------------------------------- config

TEST(Config, DefaultsValidate) { EXPECT_NO_THROW(c::SystemConfig{}.validate()); }

TEST(Config, RejectsBadValues) {
  c::SystemConfig config;
  config.n = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.mu = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.duration = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsNonFiniteValues) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    c::SystemConfig config;
    config.u = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << "u=" << bad;
    config = {};
    config.d = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << "d=" << bad;
    config = {};
    config.mu = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << "mu=" << bad;
  }
}

TEST(Config, DescribeMentionsOverrides) {
  c::SystemConfig config;
  config.c = 4;
  config.k = 7;
  const auto text = config.describe();
  EXPECT_NE(text.find("c=4"), std::string::npos);
  EXPECT_NE(text.find("k=7"), std::string::npos);
}

// ----------------------------------------------------------------- verdict

TEST(Verdict, BelowThreshold) {
  const auto profile = m::CapacityProfile::homogeneous(10, 0.8, 4.0);
  const auto verdict = c::Verdict::classify(profile, 4);
  EXPECT_EQ(verdict.regime, c::Regime::kBelowThreshold);
  EXPECT_EQ(verdict.constant_catalog_limit, 16u);
}

TEST(Verdict, AtThreshold) {
  const auto profile = m::CapacityProfile::homogeneous(10, 1.0, 4.0);
  EXPECT_EQ(c::Verdict::classify(profile, 4).regime, c::Regime::kAtThreshold);
}

TEST(Verdict, ScalableHomogeneous) {
  const auto profile = m::CapacityProfile::homogeneous(10, 1.5, 4.0);
  const auto verdict = c::Verdict::classify(profile, 4);
  EXPECT_EQ(verdict.regime, c::Regime::kScalable);
  EXPECT_NE(verdict.message.find("Theorem 1"), std::string::npos);
}

TEST(Verdict, HeterogeneousDeficitBound) {
  // u = 1.05 but Δ(1)/n = 0.25: u <= 1 + 0.25.
  const auto profile = m::CapacityProfile::two_class(4, 2, 0.5, 2, 1.6, 8);
  const auto verdict = c::Verdict::classify(profile, 4);
  EXPECT_EQ(verdict.regime, c::Regime::kDeficitBound);
}

TEST(Verdict, HeterogeneousScalable) {
  const auto profile = m::CapacityProfile::two_class(4, 1, 0.5, 2, 4.0, 8);
  const auto verdict = c::Verdict::classify(profile, 4);
  EXPECT_EQ(verdict.regime, c::Regime::kScalable);
  EXPECT_NE(verdict.message.find("Theorem 2"), std::string::npos);
}

TEST(Verdict, RegimeNames) {
  EXPECT_STREQ(c::regime_name(c::Regime::kScalable), "scalable");
  EXPECT_STREQ(c::regime_name(c::Regime::kBelowThreshold),
               "below-threshold");
}

// ----------------------------------------------------------------- planner

TEST(Planner, TheoryModeMatchesTheorem1) {
  const c::CatalogPlanner planner(100000, 1.5, 4.0, 1.2);
  const auto plan = planner.plan(c::PlanMode::kTheory);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.c, 8u);
  EXPECT_EQ(plan.k, planner.bounds().k);
  EXPECT_GT(plan.m, 0u);
  EXPECT_GT(plan.m_closed_form, 0.0);
}

TEST(Planner, TheoryInfeasibleBelowThreshold) {
  const c::CatalogPlanner planner(1000, 0.9, 4.0, 1.2);
  const auto plan = planner.plan(c::PlanMode::kTheory);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.regime, c::Regime::kBelowThreshold);
}

TEST(Planner, TheoryFlagsSmallN) {
  // Theorem k ~ hundreds; with n=20 and d=4 the storage budget d·n = 80
  // cannot host it.
  const c::CatalogPlanner planner(20, 1.2, 4.0, 1.5);
  const auto plan = planner.plan(c::PlanMode::kTheory);
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.notes.find("storage budget"), std::string::npos);
}

TEST(Planner, RejectsNonFiniteInputs) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    EXPECT_THROW(c::CatalogPlanner(100, bad, 4.0, 1.2), std::invalid_argument);
    EXPECT_THROW(c::CatalogPlanner(100, 1.5, bad, 1.2), std::invalid_argument);
    EXPECT_THROW(c::CatalogPlanner(100, 1.5, 4.0, bad), std::invalid_argument);
  }
  // A finite d whose budget d·n overflows the 32-bit k search range.
  try {
    const c::CatalogPlanner planner(200, 1.5, 1e30, 1.2);
    FAIL() << "d*n beyond 32 bits accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("d must be finite"),
              std::string::npos);
  }
}

TEST(Planner, CalibratedModeFindsSmallerK) {
  const c::CatalogPlanner planner(32, 2.5, 4.0, 1.3, /*duration=*/10);
  const auto plan = planner.plan(c::PlanMode::kCalibrated, /*trials=*/3);
  ASSERT_TRUE(plan.feasible);
  EXPECT_GE(plan.k, 1u);
  EXPECT_LE(plan.k, 64u);
  EXPECT_GT(plan.m, 0u);
  // The whole point: empirical k is far below the worst-case theory k.
  EXPECT_LT(static_cast<double>(plan.k), plan.k_theory);
}

// ----------------------------------------------------------------- vod system

TEST(VodSystem, BuildDerivesParametersFromTheorem1) {
  c::SystemConfig config;
  config.n = 400;
  config.u = 1.5;
  config.d = 4.0;
  config.mu = 1.2;
  const auto system = c::VodSystem::build(config);
  EXPECT_EQ(system.config().c, 8u);
  EXPECT_GT(system.config().k, 0u);
  EXPECT_GT(system.config().m, 0u);
  EXPECT_EQ(system.catalog().video_count(), system.config().m);
  system.allocation().check_integrity(&system.profile(),
                                      system.config().c);
}

TEST(VodSystem, BuildHonorsOverrides) {
  c::SystemConfig config;
  config.n = 50;
  config.u = 2.0;
  config.c = 4;
  config.k = 6;
  config.m = 25;
  const auto system = c::VodSystem::build(config);
  EXPECT_EQ(system.catalog().video_count(), 25u);
  EXPECT_EQ(system.catalog().stripes_per_video(), 4u);
}

TEST(VodSystem, BuildRejectsBelowThresholdWithoutOverrides) {
  c::SystemConfig config;
  config.u = 0.8;
  EXPECT_THROW((void)c::VodSystem::build(config), std::invalid_argument);
}

TEST(VodSystem, BelowThresholdBuildableWithExplicitParams) {
  c::SystemConfig config;
  config.n = 20;
  config.u = 0.8;
  config.c = 2;
  config.k = 2;
  config.m = 10;
  EXPECT_NO_THROW((void)c::VodSystem::build(config));
}

TEST(VodSystem, RunZipfWorkloadSucceeds) {
  c::SystemConfig config;
  config.n = 48;
  config.u = 2.5;
  config.d = 4.0;
  config.mu = 1.3;
  config.c = 4;   // explicit small protocol for test speed
  config.k = 8;
  config.duration = 10;
  const auto system = c::VodSystem::build(config);
  w::ZipfDemand zipf(system.catalog().video_count(), 0.8, 0.1,
                     /*seed=*/2024);
  const auto report = system.run(zipf, 40);
  EXPECT_TRUE(report.success);
  EXPECT_GT(report.demands_admitted, 0u);
}

TEST(VodSystem, FreshSimulatorPerRun) {
  c::SystemConfig config;
  config.n = 24;
  config.u = 2.5;
  config.c = 4;
  config.k = 6;
  config.duration = 8;
  const auto system = c::VodSystem::build(config);
  w::FlashCrowd crowd1(0, 1.5);
  const auto r1 = system.run(crowd1, 20);
  w::FlashCrowd crowd2(0, 1.5);
  const auto r2 = system.run(crowd2, 20);
  // Identical workloads on fresh simulators: identical reports.
  EXPECT_EQ(r1.demands_admitted, r2.demands_admitted);
  EXPECT_EQ(r1.chunks_served, r2.chunks_served);
}

TEST(VodSystem, HeterogeneousBuildInstallsCompensation) {
  c::SystemConfig config;
  config.n = 12;
  config.mu = 1.0;
  config.c = 16;
  config.k = 4;
  config.duration = 10;
  auto profile = m::CapacityProfile::two_class(12, 3, 0.5, 4.0, 4.0, 8.0);
  const auto system =
      c::VodSystem::build_heterogeneous(config, std::move(profile), 1.5);
  ASSERT_TRUE(system.compensation().has_value());
  EXPECT_EQ(system.compensation()->poor_count(), 3u);
  EXPECT_NE(system.describe().find("compensation"), std::string::npos);
}

TEST(VodSystem, HeterogeneousRejectsUncompensatable) {
  c::SystemConfig config;
  config.n = 4;
  config.c = 8;
  config.k = 2;
  auto profile = m::CapacityProfile::homogeneous(4, 0.5, 4.0);  // all poor
  EXPECT_THROW((void)c::VodSystem::build_heterogeneous(config,
                                                       std::move(profile),
                                                       1.5),
               std::invalid_argument);
}

TEST(VodSystem, HeterogeneousRunServesPoorBoxes) {
  c::SystemConfig config;
  config.n = 12;
  config.mu = 1.0;
  config.c = 16;
  config.k = 6;
  config.m = 6;
  config.duration = 12;
  auto profile = m::CapacityProfile::two_class(12, 3, 0.5, 4.0, 4.0, 8.0);
  const auto system =
      c::VodSystem::build_heterogeneous(config, std::move(profile), 1.5);
  w::ZipfDemand zipf(system.catalog().video_count(), 0.5, 0.2, 77);
  const auto report = system.run(zipf, 50);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_GT(report.demands_admitted, 0u);
}

TEST(VodSystem, ProfileSizeMismatchThrows) {
  c::SystemConfig config;
  config.n = 10;
  auto profile = m::CapacityProfile::homogeneous(5, 2.0, 4.0);
  EXPECT_THROW((void)c::VodSystem::build_heterogeneous(config,
                                                       std::move(profile),
                                                       1.5),
               std::invalid_argument);
}
