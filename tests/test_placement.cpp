// Tests for the demand-aware placement subsystem: the proportional budget
// split, the coverage objective and its exhaustive reference, the three
// placement schemes (demand-proportional, zone-local-first, lp-greedy), and
// the E15-config acceptance property that demand-aware placement lowers the
// cross-zone floor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/demand_proportional.hpp"
#include "alloc/lp_greedy.hpp"
#include "alloc/placement.hpp"
#include "alloc/round_robin.hpp"
#include "alloc/zone_local.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "net/topology.hpp"
#include "scenario/figures/zones_common.hpp"
#include "util/rng.hpp"

namespace a = p2pvod::alloc;
namespace m = p2pvod::model;
namespace nt = p2pvod::net;
namespace sc = p2pvod::scenario;

namespace {

/// Every stripe's holders as a sorted set per stripe, for scheme comparisons.
std::vector<std::vector<m::BoxId>> holder_sets(const a::Allocation& alloc) {
  std::vector<std::vector<m::BoxId>> sets(alloc.stripe_count());
  for (m::StripeId s = 0; s < alloc.stripe_count(); ++s) {
    const auto& holders = alloc.holders(s);
    sets[s].assign(holders.begin(), holders.end());
    std::sort(sets[s].begin(), sets[s].end());
  }
  return sets;
}

/// No box may hold the same stripe twice, and per-box storage must fit.
void check_allocation_valid(const a::Allocation& alloc,
                            const m::Catalog& catalog,
                            const m::CapacityProfile& profile) {
  const std::uint32_t c = catalog.stripes_per_video();
  std::vector<std::uint32_t> load(alloc.box_count(), 0);
  for (m::StripeId s = 0; s < alloc.stripe_count(); ++s) {
    std::set<m::BoxId> seen;
    for (const m::BoxId b : alloc.holders(s)) {
      ASSERT_TRUE(seen.insert(b).second)
          << "stripe " << s << " duplicated in box " << b;
      ++load[b];
    }
  }
  for (m::BoxId b = 0; b < alloc.box_count(); ++b)
    ASSERT_LE(load[b], profile.storage_slots(b, c)) << "box " << b;
}

}  // namespace

// ------------------------------------------------- proportional counts

TEST(ProportionalCounts, UniformDemandGivesEveryVideoK) {
  const auto counts = a::proportional_replica_counts(5, 6, {}, 100);
  ASSERT_EQ(counts.size(), 5u);
  for (const auto c : counts) EXPECT_EQ(c, 6u);
}

TEST(ProportionalCounts, SkewedDemandSplitsTheBudgetProportionally) {
  const std::vector<double> demand{8.0, 1.0, 1.0};
  const auto counts = a::proportional_replica_counts(3, 2, demand, 100);
  EXPECT_EQ(counts[0], 4u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 6u);
}

TEST(ProportionalCounts, EveryVideoKeepsAtLeastOneReplica) {
  // Near-total concentration on video 0 must not starve the tail: every
  // stripe has to stay servable.
  const std::vector<double> demand{1e6, 1e-6, 1e-6, 1e-6};
  const auto counts = a::proportional_replica_counts(4, 3, demand, 100);
  ASSERT_EQ(counts.size(), 4u);
  for (const auto c : counts) EXPECT_GE(c, 1u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 12u);
}

TEST(ProportionalCounts, CapDropsResidualBudget) {
  // One video, k=5, but at most 3 distinct boxes: the residue is dropped.
  const auto counts = a::proportional_replica_counts(1, 5, {}, 3);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 3u);
}

TEST(ProportionalCounts, RejectsBadInputs) {
  EXPECT_THROW((void)a::proportional_replica_counts(3, 0, {}, 10),
               std::invalid_argument);
  EXPECT_THROW((void)a::proportional_replica_counts(3, 2, {}, 0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)a::proportional_replica_counts(3, 2, std::vector<double>{1.0}, 10),
      std::invalid_argument);
  EXPECT_THROW((void)a::proportional_replica_counts(
                   3, 2, std::vector<double>{1.0, -1.0, 1.0}, 10),
               std::invalid_argument);
  EXPECT_THROW((void)a::proportional_replica_counts(
                   3, 2, std::vector<double>{0.0, 0.0, 0.0}, 10),
               std::invalid_argument);
}

// ------------------------------------------------------------- schemes

TEST(DemandProportional, UniformDemandEqualsRoundRobin) {
  // Context-free the scheme is round-robin with per-video count k — the two
  // must produce identical holder sets.
  const m::Catalog catalog(6, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(9, 1.0, 4.0);
  p2pvod::util::Rng rng_a(1), rng_b(1);
  const auto rr = a::RoundRobinAllocator().allocate(catalog, profile, 3,
                                                    rng_a);
  const auto dp = a::DemandProportionalAllocator().allocate(catalog, profile,
                                                            3, rng_b);
  EXPECT_EQ(holder_sets(rr), holder_sets(dp));
}

TEST(DemandProportional, PopularVideosGetMoreReplicas) {
  const m::Catalog catalog(4, 2, 12);
  const auto profile = m::CapacityProfile::homogeneous(12, 1.0, 4.0);
  a::PlacementContext context;
  context.demand = {9.0, 1.0, 1.0, 1.0};
  p2pvod::util::Rng rng(7);
  const auto alloc = a::DemandProportionalAllocator().allocate(
      catalog, profile, 3, rng, context);
  check_allocation_valid(alloc, catalog, profile);
  const auto expected =
      a::proportional_replica_counts(4, 3, context.demand, 12);
  for (m::VideoId v = 0; v < 4; ++v) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      EXPECT_EQ(alloc.holders(catalog.stripe_id(v, i)).size(), expected[v])
          << "video " << v;
    }
  }
  EXPECT_GT(expected[0], expected[1]);
}

TEST(ZoneLocalFirst, WithoutTopologyEqualsDemandProportional) {
  const m::Catalog catalog(4, 3, 12);
  const auto profile = m::CapacityProfile::homogeneous(10, 1.0, 4.0);
  a::PlacementContext context;
  context.demand = {5.0, 2.0, 2.0, 1.0};
  p2pvod::util::Rng rng_a(3), rng_b(3);
  const auto dp = a::DemandProportionalAllocator().allocate(catalog, profile,
                                                            4, rng_a, context);
  const auto zl = a::ZoneLocalFirstAllocator().allocate(catalog, profile, 4,
                                                        rng_b, context);
  EXPECT_EQ(holder_sets(dp), holder_sets(zl));
}

TEST(ZoneLocalFirst, PinsReplicasToZonesByPopulationShare) {
  // One video, k=4, two equal zones: every stripe gets exactly two holders
  // in each zone while storage lasts.
  const m::Catalog catalog(1, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(8, 1.0, 4.0);
  const auto topology = nt::Topology::uniform(8, 2);
  a::PlacementContext context;
  context.topology = &topology;
  p2pvod::util::Rng rng(11);
  const auto alloc = a::ZoneLocalFirstAllocator().allocate(catalog, profile, 4,
                                                           rng, context);
  check_allocation_valid(alloc, catalog, profile);
  for (m::StripeId s = 0; s < catalog.stripe_count(); ++s) {
    std::uint32_t zone0 = 0;
    std::uint32_t zone1 = 0;
    for (const m::BoxId b : alloc.holders(s))
      (topology.zone_of(b) == 0 ? zone0 : zone1) += 1;
    EXPECT_EQ(zone0, 2u) << "stripe " << s;
    EXPECT_EQ(zone1, 2u) << "stripe " << s;
  }
}

TEST(LpGreedy, SpendsTheFullBudgetValidly) {
  const m::Catalog catalog(6, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(12, 1.0, 4.0);
  const auto topology = nt::Topology::uniform(12, 3);
  a::PlacementContext context;
  context.topology = &topology;
  context.demand = {6.0, 3.0, 2.0, 1.0, 1.0, 1.0};
  p2pvod::util::Rng rng(5);
  const auto alloc = a::LpGreedyAllocator().allocate(catalog, profile, 4, rng,
                                                     context);
  check_allocation_valid(alloc, catalog, profile);
  std::uint64_t total = 0;
  for (m::StripeId s = 0; s < catalog.stripe_count(); ++s) {
    EXPECT_GE(alloc.holders(s).size(), 1u) << "stripe " << s;  // servability
    total += alloc.holders(s).size();
  }
  EXPECT_EQ(total, 4ull * catalog.stripe_count());
}

TEST(Schemes, FactoryNamesAndContextAcceptance) {
  const m::Catalog catalog(2, 2, 12);
  const auto profile = m::CapacityProfile::homogeneous(6, 1.0, 4.0);
  const auto topology = nt::Topology::uniform(6, 2);
  a::PlacementContext context;
  context.topology = &topology;
  context.demand = {3.0, 1.0};
  for (const auto scheme :
       {a::Scheme::kPermutation, a::Scheme::kIndependent, a::Scheme::kRoundRobin,
        a::Scheme::kFullReplication, a::Scheme::kDemandProportional,
        a::Scheme::kZoneLocalFirst, a::Scheme::kLpGreedy}) {
    const auto allocator = a::make_allocator(scheme);
    EXPECT_EQ(allocator->name(), a::scheme_name(scheme));
    // Every scheme accepts every context: the context-blind ones ignore it.
    p2pvod::util::Rng rng(17);
    const auto alloc =
        allocator->allocate(catalog, profile, 2, rng, context);
    check_allocation_valid(alloc, catalog, profile);
  }
}

TEST(Schemes, DemandAwareValidation) {
  const m::Catalog catalog(2, 2, 12);
  const auto profile = m::CapacityProfile::homogeneous(4, 1.0, 4.0);
  const auto wrong_topology = nt::Topology::uniform(5, 2);
  a::PlacementContext bad;
  bad.topology = &wrong_topology;
  p2pvod::util::Rng rng(1);
  EXPECT_THROW((void)a::DemandProportionalAllocator().allocate(
                   catalog, profile, 2, rng, bad),
               std::invalid_argument);
  EXPECT_THROW((void)a::ZoneLocalFirstAllocator().allocate(catalog, profile, 2,
                                                           rng, bad),
               std::invalid_argument);
  EXPECT_THROW(
      (void)a::LpGreedyAllocator().allocate(catalog, profile, 2, rng, bad),
      std::invalid_argument);
  EXPECT_THROW(
      (void)a::LpGreedyAllocator().allocate(catalog, profile, 0, rng, {}),
      std::invalid_argument);
}

// ---------------------------------------------- objective + exact reference

TEST(PlacementObjective, CountsCoveredDemandPerZone) {
  // 4 boxes, 2 zones, 1 video of 1 stripe, demand 3 => D_z = 1.5 per zone.
  // Holders {0, 1} both sit in zone 0: min(2, 1.5) + min(0, 1.5) = 1.5.
  const m::Catalog catalog(1, 1, 12);
  const auto topology = nt::Topology::uniform(4, 2);
  a::PlacementContext context;
  context.topology = &topology;
  context.demand = {3.0};
  std::vector<a::Placement> placements{
      {0, 0}, {static_cast<m::BoxId>(topology.members(0)[1]), 0}};
  const a::Allocation alloc(4, 1, a::group_by_stripe(1, placements));
  EXPECT_DOUBLE_EQ(a::placement_objective(alloc, catalog, context), 1.5);
}

TEST(PlacementObjective, ExactReferenceUpperBoundsEveryScheme) {
  const m::Catalog catalog(2, 1, 12);
  const auto profile = m::CapacityProfile::homogeneous(5, 1.0, 1.0);
  const auto topology = nt::Topology::uniform(5, 2);
  a::PlacementContext context;
  context.topology = &topology;
  context.demand = {3.0, 1.0};
  const double optimum =
      a::optimal_placement_objective(catalog, profile, 2, context);
  for (const auto scheme :
       {a::Scheme::kRoundRobin, a::Scheme::kDemandProportional,
        a::Scheme::kZoneLocalFirst, a::Scheme::kLpGreedy}) {
    p2pvod::util::Rng rng(23);
    const auto alloc = a::make_allocator(scheme)->allocate(catalog, profile, 2,
                                                           rng, context);
    EXPECT_LE(a::placement_objective(alloc, catalog, context), optimum + 1e-9)
        << a::scheme_name(scheme);
  }
}

TEST(PlacementObjective, ExactReferenceRejectsHugeInstances) {
  const m::Catalog catalog(8, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(16, 1.0, 4.0);
  EXPECT_THROW(
      (void)a::optimal_placement_objective(catalog, profile, 2, {}),
      std::invalid_argument);
}

// Acceptance property: greedy coverage maximization stays within a constant
// factor of the exhaustive optimum on randomized small instances (the
// submodular greedy guarantee; 1/2 is the conservative bound we enforce).
TEST(LpGreedy, WithinConstantFactorOfExactOptimum) {
  p2pvod::util::Rng rng(0xA11C);
  for (int trial = 0; trial < 12; ++trial) {
    const m::Catalog catalog(2, 1, 12);
    const std::uint32_t n = 6;
    const auto profile = m::CapacityProfile::homogeneous(n, 1.0, 1.0);
    const auto topology = nt::Topology::uniform(n, 2);
    a::PlacementContext context;
    context.topology = &topology;
    context.demand = {1.0 + rng.next_double() * 5.0,
                      0.5 + rng.next_double() * 2.0};
    const std::uint32_t k = 2;

    p2pvod::util::Rng alloc_rng(trial);
    const auto greedy = a::LpGreedyAllocator().allocate(catalog, profile, k,
                                                        alloc_rng, context);
    const double achieved = a::placement_objective(greedy, catalog, context);
    const double optimum =
        a::optimal_placement_objective(catalog, profile, k, context);
    ASSERT_GE(optimum, achieved - 1e-9) << "trial " << trial;
    ASSERT_GE(achieved, 0.5 * optimum - 1e-9) << "trial " << trial;
  }
}

// ------------------------------------------------- E15-config acceptance

// Acceptance property: on the zone-family protocol point (min-cost
// matching, E17's 12-zone regime where zones > k so no striping can cover
// every zone), demand-proportional placement strictly reduces cross-zone
// chunks vs the round-robin baseline — popular videos gain replicas in
// (nearly) every zone, so fewer requests are forced across a link.
TEST(PlacementAcceptance, DemandProportionalLowersCrossZoneChunks) {
  const std::uint32_t n = 24;
  const std::uint32_t zones = 12;
  const auto topology = sc::zone_family_topology(n, zones, 1);
  a::PlacementContext context;
  context.topology = &topology;
  context.demand = sc::zone_family_forecast(n);

  std::uint64_t baseline = 0;
  std::uint64_t aware = 0;
  for (std::uint32_t t = 0; t < 3; ++t) {
    const auto rr = sc::zone_family_soak(n, 1.5, topology, /*strict=*/false,
                                         /*rounds=*/48, 0xA110C + t,
                                         0xA11AA + t, a::RoundRobinAllocator(),
                                         context);
    const auto dp = sc::zone_family_soak(
        n, 1.5, topology, /*strict=*/false, /*rounds=*/48, 0xA110C + t,
        0xA11AA + t, a::DemandProportionalAllocator(), context);
    baseline += rr.cross_zone_chunks;
    aware += dp.cross_zone_chunks;
  }
  EXPECT_LT(aware, baseline);
}
