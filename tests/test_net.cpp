// Tests for src/net: Topology builders, the zone cost model, link caps, and
// the simulator's zone-aware matching round (cross-zone accounting, link-cap
// admission control, VodSystem zones knob).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "alloc/allocation.hpp"
#include "core/vod_system.hpp"
#include "flow/min_cost.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/zipf.hpp"

namespace n = p2pvod::net;
namespace s = p2pvod::sim;
namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace f = p2pvod::flow;

// ----------------------------------------------------------------- topology

TEST(Topology, UniformAssignsRoundRobin) {
  const auto topo = n::Topology::uniform(10, 3);
  EXPECT_EQ(topo.box_count(), 10u);
  EXPECT_EQ(topo.zone_count(), 3u);
  for (std::uint32_t b = 0; b < 10; ++b) EXPECT_EQ(topo.zone_of(b), b % 3);
  // Sizes differ by at most one.
  EXPECT_EQ(topo.zone_size(0), 4u);
  EXPECT_EQ(topo.zone_size(1), 3u);
  EXPECT_EQ(topo.zone_size(2), 3u);
  EXPECT_EQ(topo.members(1), (std::vector<m::BoxId>{1, 4, 7}));
}

TEST(Topology, ZipfSizedCoversAllBoxesDeterministically) {
  const auto first = n::Topology::zipf_sized(40, 4, 1.0, 7);
  const auto second = n::Topology::zipf_sized(40, 4, 1.0, 7);
  std::uint32_t total = 0;
  for (n::ZoneId z = 0; z < 4; ++z) {
    EXPECT_GE(first.zone_size(z), 1u);  // boxes >= zones: no empty zone
    EXPECT_EQ(first.zone_size(z), second.zone_size(z));
    total += first.zone_size(z);
  }
  EXPECT_EQ(total, 40u);
  for (std::uint32_t b = 0; b < 40; ++b)
    EXPECT_EQ(first.zone_of(b), second.zone_of(b));
  // The skewed head zone dominates the tail zone.
  EXPECT_GT(first.zone_size(0), first.zone_size(3));
  // A different seed shuffles membership (sizes stay put).
  const auto reseeded = n::Topology::zipf_sized(40, 4, 1.0, 8);
  EXPECT_EQ(reseeded.zone_size(0), first.zone_size(0));
  bool any_moved = false;
  for (std::uint32_t b = 0; b < 40 && !any_moved; ++b)
    any_moved = reseeded.zone_of(b) != first.zone_of(b);
  EXPECT_TRUE(any_moved);
}

TEST(Topology, ZipfSizedZeroSkewIsBalanced) {
  const auto topo = n::Topology::zipf_sized(12, 4, 0.0, 1);
  for (n::ZoneId z = 0; z < 4; ++z) EXPECT_EQ(topo.zone_size(z), 3u);
}

TEST(Topology, RandomIsSeedDeterministic) {
  const auto first = n::Topology::random(25, 5, 42);
  const auto second = n::Topology::random(25, 5, 42);
  for (std::uint32_t b = 0; b < 25; ++b) {
    EXPECT_EQ(first.zone_of(b), second.zone_of(b));
    EXPECT_LT(first.zone_of(b), 5u);
  }
}

TEST(Topology, UniformCostAndOverrides) {
  auto topo = n::Topology::uniform(6, 3);
  EXPECT_TRUE(topo.all_costs_zero());
  topo.set_uniform_cost(0, 2);
  EXPECT_FALSE(topo.all_costs_zero());
  EXPECT_EQ(topo.cost(1, 1), 0);
  EXPECT_EQ(topo.cost(0, 2), 2);
  topo.set_cost(0, 2, 7);  // directed override
  EXPECT_EQ(topo.cost(0, 2), 7);
  EXPECT_EQ(topo.cost(2, 0), 2);
  EXPECT_EQ(topo.box_cost(0, 2), 7);  // box 0 in zone 0, box 2 in zone 2
}

TEST(Topology, LinkCapsDefaultUnlimited) {
  auto topo = n::Topology::uniform(6, 3);
  EXPECT_FALSE(topo.has_link_caps());
  EXPECT_EQ(topo.link_cap(0, 1), n::kUnlimitedLink);
  topo.set_uniform_link_cap(4);
  EXPECT_TRUE(topo.has_link_caps());
  EXPECT_EQ(topo.link_cap(0, 1), 4u);
  EXPECT_EQ(topo.link_cap(1, 1), n::kUnlimitedLink);  // intra stays free
  topo.set_link_cap(0, 1, n::kUnlimitedLink);
  EXPECT_EQ(topo.link_cap(0, 1), n::kUnlimitedLink);
}

TEST(Topology, RejectsBadArguments) {
  EXPECT_THROW((void)n::Topology::uniform(4, 0), std::invalid_argument);
  EXPECT_THROW((void)n::Topology({0, 3}, 2), std::invalid_argument);
  EXPECT_THROW((void)n::Topology::zipf_sized(8, 2, -1.0, 0),
               std::invalid_argument);
  auto topo = n::Topology::uniform(4, 2);
  EXPECT_THROW(topo.set_cost(0, 5, 1), std::out_of_range);
  EXPECT_THROW(topo.set_cost(0, 1, -1), std::invalid_argument);
  // The min-cost matcher's cost bound holds when the topology is built.
  EXPECT_THROW(topo.set_cost(0, 1, f::kMaxEdgeCost + 1), std::invalid_argument);
  EXPECT_THROW(topo.set_uniform_cost(0, f::kMaxEdgeCost + 1),
               std::invalid_argument);
  EXPECT_THROW(topo.set_uniform_cost(f::kMaxEdgeCost + 1, 0),
               std::invalid_argument);
  EXPECT_EQ(topo.set_uniform_cost(0, f::kMaxEdgeCost).cost(0, 1),
            f::kMaxEdgeCost);
  EXPECT_EQ(topo.set_cost(1, 0, f::kMaxEdgeCost).cost(1, 0), f::kMaxEdgeCost);
  EXPECT_THROW((void)topo.zone_of(99), std::out_of_range);
  EXPECT_THROW((void)topo.zone_size(7), std::out_of_range);
  EXPECT_THROW((void)topo.members(7), std::out_of_range);
}

TEST(Topology, DescribeMentionsShape) {
  auto topo = n::Topology::uniform(6, 2);
  topo.set_uniform_cost(0, 1).set_uniform_link_cap(3);
  const auto text = topo.describe();
  EXPECT_NE(text.find("zones=2"), std::string::npos);
  EXPECT_NE(text.find("costed"), std::string::npos);
  EXPECT_NE(text.find("capped"), std::string::npos);
}

// ------------------------------------------------- zone-aware simulation

namespace {

/// One viewer (box 0, zone 0) demanding the single 1-stripe video; the
/// stripe's static holders are the test knob. duration 2 => 2 chunks served.
struct TinyZoned {
  m::Catalog catalog{1, 1, 2};
  m::CapacityProfile profile = m::CapacityProfile::homogeneous(3, 2.0, 4.0);
  a::Allocation allocation;
  s::PreloadingStrategy strategy;

  explicit TinyZoned(std::vector<m::BoxId> holders)
      : allocation(3, 1, a::group_by_stripe(1, [&] {
          std::vector<a::Placement> placements;
          for (const m::BoxId b : holders) placements.push_back({b, 0});
          return placements;
        }())) {}

  s::RunReport run(const n::Topology& topology, bool strict = false) {
    s::SimulatorOptions options;
    options.strict = strict;
    options.topology = &topology;
    s::Simulator simulator(catalog, profile, allocation, strategy, options);
    simulator.step({});                 // round 0: idle
    simulator.step({{0, 0}});           // round 1: box 0 demands video 0
    for (int i = 0; i < 5; ++i) simulator.step({});
    return simulator.report();
  }
};

}  // namespace

TEST(ZoneAwareSimulator, PrefersIntraZoneServer) {
  // Holders in both zones; min-cost matching must stay local.
  TinyZoned tiny({1, 2});
  auto topology = n::Topology({0, 0, 1}, 2);
  topology.set_uniform_cost(0, 1);
  const auto report = tiny.run(topology);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.intra_zone_chunks, 2u);  // box 1, same zone, both chunks
  EXPECT_EQ(report.cross_zone_chunks, 0u);
  EXPECT_EQ(report.zone_cost_total, 0);
  EXPECT_DOUBLE_EQ(report.cross_zone_fraction.mean(), 0.0);
  EXPECT_DOUBLE_EQ(report.cross_zone_share(), 0.0);
}

TEST(ZoneAwareSimulator, AccountsForcedCrossZoneTraffic) {
  // Only a foreign holder exists: every chunk crosses the zone boundary.
  TinyZoned tiny({2});
  auto topology = n::Topology({0, 0, 1}, 2);
  topology.set_uniform_cost(0, 3);
  const auto report = tiny.run(topology);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.intra_zone_chunks, 0u);
  EXPECT_EQ(report.cross_zone_chunks, 2u);
  EXPECT_EQ(report.zone_cost_total, 6);  // 2 chunks x cost 3
  EXPECT_DOUBLE_EQ(report.cross_zone_fraction.mean(), 1.0);
  EXPECT_DOUBLE_EQ(report.cross_zone_share(), 1.0);
}

TEST(ZoneAwareSimulator, LinkCapZeroStallsStrictRun) {
  TinyZoned tiny({2});
  auto topology = n::Topology({0, 0, 1}, 2);
  topology.set_uniform_cost(0, 1);
  topology.set_link_cap(1, 0, 0);  // the only usable link is shut
  const auto report = tiny.run(topology, /*strict=*/true);
  EXPECT_FALSE(report.success);
  EXPECT_GE(report.link_cap_rejections, 1u);
  EXPECT_EQ(report.cross_zone_chunks, 0u);
}

TEST(ZoneAwareSimulator, CapRescueReroutesOverOpenLink) {
  // Box 1 (zone 1) is the cheap server, box 2 (zone 2) the expensive one.
  // Shutting link 1->0 forces the admission control to drop the cheap
  // connection and the rescue pass to reroute it over 2->0.
  TinyZoned tiny({1, 2});
  auto topology = n::Topology({0, 1, 2}, 3);
  topology.set_uniform_cost(0, 1);
  topology.set_cost(2, 0, 5);      // box 2 strictly more expensive
  topology.set_link_cap(1, 0, 0);  // cheap link shut
  const auto report = tiny.run(topology, /*strict=*/true);
  EXPECT_TRUE(report.success);
  EXPECT_GE(report.link_cap_rejections, 1u);
  EXPECT_EQ(report.cross_zone_chunks, 2u);
  EXPECT_EQ(report.zone_cost_total, 10);  // both chunks over the 5-cost link
}

TEST(ZoneAwareSimulator, ZeroCostTopologyMatchesCostBlindFeasibility) {
  // With all costs zero the min-cost path degrades to Dinic: served counts
  // (and hence continuity) must equal a run without any topology.
  const std::uint32_t boxes = 12;
  const m::Catalog catalog(4, 2, 6);
  const auto profile = m::CapacityProfile::homogeneous(boxes, 1.5, 4.0);
  p2pvod::util::Rng rng(0xBEEF);
  std::vector<a::Placement> placements;
  for (m::StripeId stripe = 0; stripe < catalog.stripe_count(); ++stripe) {
    for (int replica = 0; replica < 3; ++replica) {
      placements.push_back(
          {static_cast<m::BoxId>(rng.next_below(boxes)), stripe});
    }
  }
  const a::Allocation allocation(
      boxes, catalog.stripe_count(),
      a::group_by_stripe(catalog.stripe_count(), placements));
  const auto topology = n::Topology::uniform(boxes, 3);  // costs all zero

  const auto drive = [&](const n::Topology* topo) {
    s::PreloadingStrategy strategy;
    s::SimulatorOptions options;
    options.strict = false;
    options.topology = topo;
    s::Simulator simulator(catalog, profile, allocation, strategy, options);
    p2pvod::workload::ZipfDemand audience(4, 0.8, 0.4, 0xFACE);
    return simulator.run(audience, 30);
  };
  const auto zoned = drive(&topology);
  const auto bare = drive(nullptr);
  EXPECT_EQ(zoned.chunks_served, bare.chunks_served);
  EXPECT_EQ(zoned.chunks_stalled, bare.chunks_stalled);
  // Zone accounting still ran in the zoned run.
  EXPECT_EQ(zoned.intra_zone_chunks + zoned.cross_zone_chunks,
            zoned.chunks_served);
  EXPECT_EQ(zoned.zone_cost_total, 0);
}

TEST(ZoneAwareSimulator, RejectsTopologySizeMismatch) {
  TinyZoned tiny({1});
  const auto topology = n::Topology::uniform(7, 2);  // 7 boxes != 3
  s::SimulatorOptions options;
  options.topology = &topology;
  EXPECT_THROW(s::Simulator(tiny.catalog, tiny.profile, tiny.allocation,
                            tiny.strategy, options),
               std::invalid_argument);
}

// ----------------------------------------------------------- vod system

TEST(VodSystemZones, BuildsTopologyAndAccountsTraffic) {
  p2pvod::core::SystemConfig config;
  config.n = 24;
  config.u = 2.0;
  config.d = 4.0;
  config.zones = 4;
  config.c = 4;
  config.k = 6;
  config.duration = 8;
  config.strict = false;
  const auto system = p2pvod::core::VodSystem::build(config);
  ASSERT_NE(system.topology(), nullptr);
  EXPECT_EQ(system.topology()->zone_count(), 4u);
  EXPECT_EQ(system.topology()->box_count(), 24u);
  EXPECT_NE(system.describe().find("zones=4"), std::string::npos);

  p2pvod::workload::ZipfDemand audience(system.catalog().video_count(), 0.8,
                                        0.3, 99);
  const auto report = system.run(audience, 40);
  EXPECT_GT(report.intra_zone_chunks + report.cross_zone_chunks, 0u);
}

TEST(VodSystemZones, ZeroZonesMeansNoTopology) {
  p2pvod::core::SystemConfig config;
  config.n = 8;
  config.u = 2.0;
  config.c = 2;
  config.k = 2;
  const auto system = p2pvod::core::VodSystem::build(config);
  EXPECT_EQ(system.topology(), nullptr);
}

TEST(VodSystemZones, ValidateRejectsMoreZonesThanBoxes) {
  p2pvod::core::SystemConfig config;
  config.n = 4;
  config.zones = 5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}
