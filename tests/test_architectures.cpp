// Architecture tests: §1 of the paper claims the model "encompasses various
// architectures such as a peer-assisted server or a distributed server
// serving purely client boxes (i.e. with no upload capacity)". These tests
// exercise exactly those corners, plus failure-injection tests for the
// simulator's contract with strategies.
#include <gtest/gtest.h>

#include "alloc/permutation.hpp"
#include "core/vod_system.hpp"
#include "hetero/compensation.hpp"
#include "hetero/relay.hpp"
#include "sim/simulator.hpp"
#include "workload/limiter.hpp"
#include "workload/sequential.hpp"
#include "workload/zipf.hpp"

namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace s = p2pvod::sim;
namespace w = p2pvod::workload;
namespace h = p2pvod::hetero;

// ------------------------------------------------ pure server architecture

namespace {

/// One server (all storage, big upload) + clients with zero upload/storage.
struct ServerWorld {
  ServerWorld(std::uint32_t clients, double server_upload)
      : profile(m::CapacityProfile::server_plus_clients(
            clients + 1, server_upload, /*server storage=*/50.0,
            /*client upload=*/0.0, /*client storage=*/0.0)),
        catalog(/*m=*/8, /*c=*/4, /*T=*/12) {}

  m::CapacityProfile profile;
  m::Catalog catalog;
};

}  // namespace

TEST(Architectures, PureServerCompensatesZeroUploadClients) {
  ServerWorld world(8, 30.0);
  // Reservation per client: u* + 1 - 2*0 = 2.5; headroom 30 - 1.5 = 28.5.
  const auto plan = h::Compensator::plan(world.profile, 1.5, 4, 1.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->poor_count(), 8u);
  for (m::BoxId b = 1; b <= 8; ++b) EXPECT_EQ(plan->relay[b], 0u);
  plan->check(world.profile);
}

TEST(Architectures, PureServerFleetStreamsFromStorage) {
  ServerWorld world(8, 30.0);
  const auto plan = h::Compensator::plan(world.profile, 1.5, 4, 1.0);
  ASSERT_TRUE(plan.has_value());

  // All stripes on the server box 0.
  std::vector<a::Placement> placements;
  for (m::StripeId stripe = 0; stripe < world.catalog.stripe_count(); ++stripe)
    placements.push_back({0, stripe});
  const a::Allocation allocation(
      world.profile.size(), world.catalog.stripe_count(),
      a::group_by_stripe(world.catalog.stripe_count(), placements));

  h::RelayStrategy strategy(*plan);
  s::SimulatorOptions options;
  options.capacity_override = plan->capacity_slots();
  s::Simulator sim(world.catalog, world.profile, allocation, strategy,
                   options);
  sim.step({{1, 0}, {2, 1}});
  for (int t = 1; t < 30; ++t) sim.step({});

  const auto& report = sim.report();
  EXPECT_TRUE(report.success);
  // The server holds every stripe: everything is forwarded from storage over
  // the reserved upload — zero network (matched) requests.
  EXPECT_EQ(report.requests_issued, 0u);
  EXPECT_EQ(report.sessions_completed, 2u);
}

TEST(Architectures, UnderProvisionedServerCannotCompensate) {
  ServerWorld world(8, 5.0);  // headroom 3.5 < 8 * 2.5
  EXPECT_FALSE(h::Compensator::plan(world.profile, 1.5, 4, 1.0).has_value());
}

// A *distributed* server: several server boxes, many zero-upload clients.
TEST(Architectures, DistributedServerSharesClients) {
  std::vector<double> upload(12, 0.0), storage(12, 0.0);
  upload[0] = upload[1] = upload[2] = 12.0;
  storage[0] = storage[1] = storage[2] = 24.0;
  const m::CapacityProfile profile(std::move(upload), std::move(storage));
  const auto plan = h::Compensator::plan(profile, 1.5, 4, 1.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->poor_count(), 9u);
  // 9 clients, each reserving 2.5: needs 22.5 total; per-server headroom
  // 10.5 hosts at most 4 -> all three servers must share.
  std::array<int, 3> hosted{};
  for (m::BoxId b = 3; b < 12; ++b) {
    const auto r = plan->relay[b];
    ASSERT_LT(r, 3u);
    ++hosted[r];
  }
  for (const int h_count : hosted) EXPECT_GT(h_count, 0);
  plan->check(profile);
}

// Peer-assisted server: clients have *some* upload; the server absorbs the
// deficit, peers swarm the rest (the middle ground of §1).
TEST(Architectures, PeerAssistedServerRuns) {
  const std::uint32_t n = 13;
  std::vector<double> upload(n, 0.8), storage(n, 2.0);
  upload[0] = 20.0;
  storage[0] = 40.0;
  const m::CapacityProfile profile(std::move(upload), std::move(storage));
  const auto plan = h::Compensator::plan(profile, 1.5, 8, 1.0);
  ASSERT_TRUE(plan.has_value()) << "server headroom must cover 12 * 0.9";

  const m::Catalog catalog(10, 8, 12);
  p2pvod::util::Rng rng(77);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, 3, rng);
  h::RelayStrategy strategy(*plan);
  s::SimulatorOptions options;
  options.capacity_override = plan->capacity_slots();
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  w::ZipfDemand audience(10, 0.8, 0.15, 99);
  w::GrowthLimiter limited(audience, 1.2);
  const auto report = sim.run(limited, 40);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_GT(report.demands_admitted, 0u);
}

// ------------------------------------------------ failure injection

namespace {

/// Strategy that violates the simulator contract: issues in the past.
class TimeTravelStrategy final : public s::RequestStrategy {
 public:
  void plan(m::BoxId b, m::VideoId v, std::uint64_t, m::Round now,
            s::Simulator& sim, std::vector<s::PlannedRequest>& out) override {
    out.push_back(s::PlannedRequest::direct(
        b, sim.catalog().stripe_id(v, 0), now - 1));
  }
  [[nodiscard]] std::string name() const override { return "time-travel"; }
};

/// Strategy that references a stripe outside the catalog.
class WildStripeStrategy final : public s::RequestStrategy {
 public:
  void plan(m::BoxId b, m::VideoId, std::uint64_t, m::Round now,
            s::Simulator& sim, std::vector<s::PlannedRequest>& out) override {
    out.push_back(s::PlannedRequest::direct(
        b, sim.catalog().stripe_count() + 5, now));
  }
  [[nodiscard]] std::string name() const override { return "wild-stripe"; }
};

struct TinyWorld {
  TinyWorld()
      : catalog(2, 2, 6),
        profile(m::CapacityProfile::homogeneous(3, 2.0, 10.0)),
        allocation(build()) {}
  static a::Allocation build() {
    std::vector<a::Placement> placements;
    for (m::StripeId stripe = 0; stripe < 4; ++stripe)
      placements.push_back({2, stripe});
    return a::Allocation(3, 4, a::group_by_stripe(4, placements));
  }
  m::Catalog catalog;
  m::CapacityProfile profile;
  a::Allocation allocation;
};

}  // namespace

TEST(FailureInjection, PastIssueRejected) {
  TinyWorld world;
  TimeTravelStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({});  // move to round 1 so "now - 1" is a genuine past round
  EXPECT_THROW(sim.step({{0, 0}}), std::logic_error);
}

TEST(FailureInjection, UnknownStripeRejected) {
  TinyWorld world;
  WildStripeStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  EXPECT_THROW(sim.step({{0, 0}}), std::out_of_range);
}

TEST(FailureInjection, MismatchedAllocationRejected) {
  TinyWorld world;
  const m::Catalog other(5, 2, 6);  // 10 stripes != allocation's 4
  s::PreloadingStrategy strategy;
  EXPECT_THROW(s::Simulator(other, world.profile, world.allocation, strategy),
               std::invalid_argument);
}

TEST(FailureInjection, ZeroCapacityEverywhereStallsImmediately) {
  TinyWorld world;
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.capacity_override = {0, 0, 0};
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}});  // box 0 lacks the stripes; nobody can upload
  EXPECT_FALSE(sim.report().success);
  EXPECT_EQ(sim.report().first_stall, 0);
}

// ------------------------------------------------ misc edge behaviours

TEST(Edges, ReportContinuityWithNoTraffic) {
  s::RunReport report;
  EXPECT_EQ(report.continuity(), 1.0);
}

TEST(Edges, StrictStallKeepsSwarmMembership) {
  // After a strict stall the simulator freezes; swarm sizes remain as they
  // were at the stall (no phantom leaves).
  TinyWorld world;
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.capacity_override = {0, 0, 0};
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}});
  const auto size_at_stall = sim.swarms().size(0);
  sim.step({});
  sim.step({});
  EXPECT_EQ(sim.swarms().size(0), size_at_stall);
}

TEST(Edges, HugeMuMakesLimiterTransparent) {
  TinyWorld world;
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  w::SequentialViewer inner(5, 1.0);
  w::GrowthLimiter limiter(inner, 1000.0);
  const auto demands = limiter.demands(sim);
  EXPECT_EQ(demands.size(), 3u);  // nothing dropped
  EXPECT_EQ(limiter.dropped(), 0u);
}

TEST(Edges, VodSystemBelowStorageIdentityStillRuns) {
  // m explicitly smaller than d*n/k: extra storage slots stay empty.
  p2pvod::core::SystemConfig config;
  config.n = 12;
  config.u = 2.0;
  config.c = 2;
  config.k = 3;
  config.m = 4;
  config.duration = 6;
  const auto system = p2pvod::core::VodSystem::build(config);
  EXPECT_EQ(system.catalog().video_count(), 4u);
  w::ZipfDemand audience(4, 0.5, 0.3, 3);
  const auto report = system.run(audience, 20);
  EXPECT_TRUE(report.success);
}
