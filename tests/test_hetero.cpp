// Unit tests for src/hetero: §4 compensation plans, storage balance, and the
// relay strategy's request schedule.
#include <gtest/gtest.h>

#include <cmath>

#include "alloc/allocation.hpp"
#include "hetero/balance.hpp"
#include "hetero/compensation.hpp"
#include "hetero/relay.hpp"
#include "sim/simulator.hpp"

namespace h = p2pvod::hetero;
namespace m = p2pvod::model;
namespace s = p2pvod::sim;
namespace a = p2pvod::alloc;

// ----------------------------------------------------------------- compensation

TEST(Compensation, HomogeneousRichNeedsNoRelays) {
  const auto profile = m::CapacityProfile::homogeneous(8, 2.0, 4.0);
  const auto plan = h::Compensator::plan(profile, 1.5, 8, 1.1);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->poor_count(), 0u);
  for (m::BoxId b = 0; b < 8; ++b)
    EXPECT_NEAR(plan->usable_upload[b], 2.0, 1e-12);
  plan->check(profile);
}

TEST(Compensation, PairsPoorWithRich) {
  // 2 poor boxes (u=0.5) need reservation u*+1-2*0.5 = 1.5 each; rich boxes
  // (u=4) have headroom 4-1.5 = 2.5 >= 1.5.
  const auto profile = m::CapacityProfile::two_class(6, 2, 0.5, 2.0, 4.0, 8.0);
  const auto plan = h::Compensator::plan(profile, 1.5, 10, 1.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->poor_count(), 2u);
  for (const m::BoxId b : profile.poor_boxes(1.5)) {
    const m::BoxId r = plan->relay[b];
    ASSERT_NE(r, m::kInvalidBox);
    EXPECT_GE(profile.upload(r), 1.5);
  }
  plan->check(profile);
}

TEST(Compensation, FailsWhenRichHaveNoHeadroom) {
  // Rich boxes at exactly u* cannot host any reservation.
  const auto profile = m::CapacityProfile::two_class(4, 2, 0.5, 2.0, 1.5, 8.0);
  EXPECT_FALSE(h::Compensator::plan(profile, 1.5, 10, 1.0).has_value());
}

TEST(Compensation, FailsWithNoRichBoxes) {
  const auto profile = m::CapacityProfile::homogeneous(4, 0.8, 4.0);
  EXPECT_FALSE(h::Compensator::plan(profile, 1.5, 10, 1.0).has_value());
}

TEST(Compensation, DirectStripeCountFormula) {
  // c_b = max(0, ⌊c·u_b − 4µ⁴⌋), capped at c−1.
  EXPECT_EQ(h::Compensator::direct_stripe_count(0.5, 20, 1.0), 6u);  // 10-4
  EXPECT_EQ(h::Compensator::direct_stripe_count(0.1, 20, 1.0), 0u);  // 2-4 < 0
  EXPECT_EQ(h::Compensator::direct_stripe_count(0.9, 10, 1.2),
            static_cast<std::uint32_t>(
                std::max(0.0, std::floor(9.0 - 4.0 * std::pow(1.2, 4.0)))));
  EXPECT_EQ(h::Compensator::direct_stripe_count(5.0, 4, 1.0), 3u);  // cap c-1
}

TEST(Compensation, UsableUploadSubtractsForwarding) {
  const auto profile = m::CapacityProfile::two_class(3, 1, 0.5, 2.0, 4.0, 8.0);
  const std::uint32_t c = 20;
  const auto plan = h::Compensator::plan(profile, 1.5, c, 1.0);
  ASSERT_TRUE(plan.has_value());
  const m::BoxId relay = plan->relay[0];
  const std::uint32_t cb = plan->direct_stripes[0];
  const double forwarding = static_cast<double>(c - cb) / c;
  EXPECT_NEAR(plan->usable_upload[relay], 4.0 - forwarding, 1e-9);
  // The poor box keeps its full upload for serving others.
  EXPECT_NEAR(plan->usable_upload[0], 0.5, 1e-12);
}

TEST(Compensation, NecessaryConditionSection4) {
  // u = (2*0.5 + 2*4)/4 = 2.25, u* + Δ(1)/n = 1.5 + 1/4 = 1.75: holds.
  const auto good = m::CapacityProfile::two_class(4, 2, 0.5, 2, 4.0, 8);
  EXPECT_TRUE(h::Compensator::necessary_condition(good, 1.5));
  // u = (2*0.5 + 2*1.6)/4 = 1.05 < 1.75: fails.
  const auto bad = m::CapacityProfile::two_class(4, 2, 0.5, 2, 1.6, 8);
  EXPECT_FALSE(h::Compensator::necessary_condition(bad, 1.5));
}

TEST(Compensation, CapacitySlotsFloorUsable) {
  const auto profile = m::CapacityProfile::two_class(3, 1, 0.5, 2.0, 4.0, 8.0);
  const auto plan = h::Compensator::plan(profile, 1.5, 10, 1.0);
  ASSERT_TRUE(plan.has_value());
  const auto slots = plan->capacity_slots();
  for (m::BoxId b = 0; b < 3; ++b) {
    EXPECT_EQ(slots[b], static_cast<std::uint32_t>(
                            std::floor(plan->usable_upload[b] * 10 + 1e-9)));
  }
}

TEST(Compensation, CheckDetectsTampering) {
  const auto profile = m::CapacityProfile::two_class(4, 1, 0.5, 2.0, 4.0, 8.0);
  auto plan = h::Compensator::plan(profile, 1.5, 10, 1.0);
  ASSERT_TRUE(plan.has_value());
  plan->reserved[plan->relay[0]] += 1.0;  // corrupt the ledger
  EXPECT_THROW(plan->check(profile), std::logic_error);
}

TEST(Compensation, RejectsBadArguments) {
  const auto profile = m::CapacityProfile::homogeneous(4, 2.0, 4.0);
  EXPECT_THROW((void)h::Compensator::plan(profile, 1.0, 10, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)h::Compensator::plan(profile, 1.5, 0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)h::Compensator::plan(profile, 1.5, 10, 0.5),
               std::invalid_argument);
}

TEST(Compensation, RejectsNanMu) {
  const auto profile = m::CapacityProfile::homogeneous(4, 2.0, 4.0);
  EXPECT_THROW((void)h::Compensator::plan(profile, 1.5, 10, std::nan("")),
               std::invalid_argument);
}

TEST(Compensation, RejectsNanUStar) {
  const auto profile = m::CapacityProfile::homogeneous(4, 2.0, 4.0);
  EXPECT_THROW((void)h::Compensator::plan(profile, std::nan(""), 10, 1.0),
               std::invalid_argument);
}

// ----------------------------------------------------------------- balance

TEST(Balance, HomogeneousProportionalIsBalanced) {
  // d/u = 4/1.5 ≈ 2.67 >= 2 and d_b/u_b == d/u <= d/u* for u* <= u.
  const auto profile = m::CapacityProfile::homogeneous(6, 1.5, 4.0);
  const auto report = h::BalanceChecker::check(profile, 1.5);
  EXPECT_TRUE(report.storage_balanced);
  EXPECT_NEAR(report.min_ratio, 4.0 / 1.5, 1e-12);
}

TEST(Balance, DetectsLowStorage) {
  const auto profile = m::CapacityProfile::homogeneous(4, 2.0, 3.0);  // ratio 1.5 < 2
  const auto report = h::BalanceChecker::check(profile, 1.5);
  EXPECT_FALSE(report.storage_balanced);
  EXPECT_EQ(report.below_lower.size(), 4u);
}

TEST(Balance, DetectsOverProvisionedStorage) {
  // Box 0: ratio 9/0.5 = 18 > d/u* = (9+2*3)/3... build explicit vectors.
  const m::CapacityProfile profile({0.5, 2.0, 2.0}, {9.0, 4.0, 4.0});
  const auto report = h::BalanceChecker::check(profile, 1.5);
  EXPECT_FALSE(report.storage_balanced);
  EXPECT_FALSE(report.above_upper.empty());
}

TEST(Balance, ZeroUploadWithStorageUnbalanced) {
  const m::CapacityProfile profile({0.0, 2.0}, {4.0, 4.0});
  const auto report = h::BalanceChecker::check(profile, 1.5);
  EXPECT_FALSE(report.storage_balanced);
}

TEST(Balance, TruncateStorageEqualizesRatios) {
  const m::CapacityProfile profile({1.0, 2.0}, {8.0, 4.0});
  const auto truncated = h::BalanceChecker::truncate_storage(profile);
  // τ = min(8, 2) = 2 -> storage = 2·u.
  EXPECT_NEAR(truncated.storage(0), 2.0, 1e-12);
  EXPECT_NEAR(truncated.storage(1), 4.0, 1e-12);
  EXPECT_TRUE(truncated.is_proportional());
}

TEST(Balance, TruncateRejectsZeroUploadWithStorage) {
  const m::CapacityProfile profile({0.0}, {4.0});
  EXPECT_THROW((void)h::BalanceChecker::truncate_storage(profile),
               std::invalid_argument);
}

TEST(Balance, SubBoxCount) {
  const m::CapacityProfile profile({1.5, 0.7}, {4.0, 4.0});
  // ⌊1.5·10⌋ + ⌊0.7·10⌋ = 15 + 7.
  EXPECT_EQ(h::BalanceChecker::sub_box_count(profile, 10), 22u);
}

// ----------------------------------------------------------------- relay

namespace {

struct RelayWorld {
  RelayWorld()
      : profile(m::CapacityProfile::two_class(4, 1, 0.5, 2.0, 4.0, 8.0)),
        catalog(2, 8, 20),
        plan(*h::Compensator::plan(profile, 1.5, 8, 1.0)),
        allocation(build()) {}

  a::Allocation build() const {
    // All stripes held by box 3 (a rich box, not the relay necessarily).
    std::vector<a::Placement> placements;
    for (m::StripeId stripe = 0; stripe < catalog.stripe_count(); ++stripe)
      placements.push_back({3, stripe});
    return a::Allocation(
        4, catalog.stripe_count(),
        a::group_by_stripe(catalog.stripe_count(), placements));
  }

  m::CapacityProfile profile;
  m::Catalog catalog;
  h::CompensationPlan plan;
  a::Allocation allocation;
};

}  // namespace

TEST(Relay, PoorBoxScheduleFollowsSection4) {
  RelayWorld world;
  h::RelayStrategy strategy(world.plan);
  s::SimulatorOptions options;
  options.capacity_override = world.plan.capacity_slots();
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);

  std::vector<s::PlannedRequest> plans;
  strategy.plan(/*box=*/0, /*video=*/0, /*ticket=*/0, /*now=*/10, sim, plans);

  const m::BoxId relay = world.plan.relay[0];
  ASSERT_NE(relay, m::kInvalidBox);
  const std::uint32_t cb = world.plan.direct_stripes[0];
  EXPECT_EQ(cb, 0u);  // ⌊8·0.5 − 4⌋ = 0

  std::uint32_t preload = 0, direct = 0, relayed = 0;
  for (const auto& p : plans) {
    if (p.issue == 10) {
      ++preload;
      EXPECT_EQ(p.requester, relay);
      // Both the relay (entry 10) and the viewer (entry 11) gain cache data.
      ASSERT_EQ(p.grants.size(), 2u);
      EXPECT_EQ(p.grants[0].box, relay);
      EXPECT_EQ(p.grants[0].entry, 10);
      EXPECT_EQ(p.grants[1].box, 0u);
      EXPECT_EQ(p.grants[1].entry, 11);
    } else if (p.issue == 12) {
      ++direct;
      EXPECT_EQ(p.requester, 0u);
    } else {
      EXPECT_EQ(p.issue, 13);
      ++relayed;
      EXPECT_EQ(p.requester, relay);
    }
  }
  EXPECT_EQ(preload, 1u);
  EXPECT_EQ(direct, cb);
  EXPECT_EQ(relayed, 8u - 1u - cb);
}

TEST(Relay, RichBoxPostponesAtPlusTwo) {
  RelayWorld world;
  h::RelayStrategy strategy(world.plan);
  s::SimulatorOptions options;
  options.capacity_override = world.plan.capacity_slots();
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);

  std::vector<s::PlannedRequest> plans;
  strategy.plan(/*box=*/1, /*video=*/0, /*ticket=*/2, /*now=*/4, sim, plans);
  ASSERT_EQ(plans.size(), 8u);
  std::uint32_t at_now = 0, at_plus2 = 0;
  for (const auto& p : plans) {
    EXPECT_EQ(p.requester, 1u);
    if (p.issue == 4) {
      ++at_now;
      EXPECT_EQ(p.stripe, 2u);  // ticket 2 mod 8
    } else {
      EXPECT_EQ(p.issue, 6);
      ++at_plus2;
    }
  }
  EXPECT_EQ(at_now, 1u);
  EXPECT_EQ(at_plus2, 7u);
}

TEST(Relay, RelayHoldingStripeForwardsFromStorage) {
  RelayWorld world;
  // Force the relay to be box 3 (the holder of everything) by remapping.
  world.plan.relay[0] = 3;
  h::RelayStrategy strategy(world.plan);
  s::SimulatorOptions options;
  options.capacity_override = world.plan.capacity_slots();
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);

  std::vector<s::PlannedRequest> plans;
  strategy.plan(0, 0, 0, 5, sim, plans);
  // Every stripe is held by the relay: all plans are forwarding-only.
  for (const auto& p : plans) {
    EXPECT_EQ(p.requester, m::kInvalidBox);
    ASSERT_EQ(p.grants.size(), 1u);
    EXPECT_EQ(p.grants[0].box, 0u);
  }
}

TEST(Relay, EndToEndPoorBoxPlaybackSucceeds) {
  RelayWorld world;
  h::RelayStrategy strategy(world.plan);
  s::SimulatorOptions options;
  options.capacity_override = world.plan.capacity_slots();
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}});  // poor box demands
  for (int t = 1; t < 30; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_completed, 1u);
}

TEST(Relay, EndToEndMixedCrowdSucceeds) {
  RelayWorld world;
  h::RelayStrategy strategy(world.plan);
  s::SimulatorOptions options;
  options.capacity_override = world.plan.capacity_slots();
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}});           // poor viewer
  sim.step({});
  sim.step({{1, 0}, {2, 1}});   // rich viewers, staggered
  for (int t = 3; t < 40; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_completed, 3u);
}
