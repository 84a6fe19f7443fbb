// Churn-extension tests: box failure and recovery semantics.
//
// Not in the paper (its allocation is static and fault-free); this is the
// natural robustness extension: a failed box loses its upload, its cached
// data and its in-flight playbacks, and its static replicas become
// unreachable until recovery. Replication k is what buys churn tolerance —
// tested here and measured in bench E13.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/permutation.hpp"
#include "hetero/compensation.hpp"
#include "hetero/relay.hpp"
#include "sim/simulator.hpp"
#include "workload/zipf.hpp"

namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace s = p2pvod::sim;
namespace h = p2pvod::hetero;
namespace w = p2pvod::workload;

namespace {

/// One video, c=1, stripe held by `holders` chosen boxes at the top ids.
struct ChurnWorld {
  ChurnWorld(std::uint32_t n, std::uint32_t holder_count, double u,
             m::Round T = 10, std::uint32_t videos = 1,
             std::uint32_t c = 1)
      : catalog(videos, c, T),
        profile(m::CapacityProfile::homogeneous(n, u, 100.0)),
        allocation(build(n, videos, c, holder_count)) {}

  static a::Allocation build(std::uint32_t n, std::uint32_t videos,
                             std::uint32_t c, std::uint32_t holder_count) {
    std::vector<a::Placement> placements;
    for (std::uint32_t v = 0; v < videos; ++v) {
      for (std::uint32_t i = 0; i < c; ++i) {
        for (std::uint32_t h = 0; h < holder_count; ++h)
          placements.push_back({n - 1 - h, v * c + i});
      }
    }
    return a::Allocation(n, videos * c,
                         a::group_by_stripe(videos * c, placements));
  }

  m::Catalog catalog;
  m::CapacityProfile profile;
  a::Allocation allocation;
};

}  // namespace

TEST(Churn, FailedViewerAbortsItsSession) {
  ChurnWorld world(3, 1, 2.0);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  EXPECT_EQ(sim.swarms().size(0), 1u);
  sim.set_box_online(0, false);
  EXPECT_EQ(sim.swarms().size(0), 0u);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
  EXPECT_EQ(sim.report().box_failures, 1u);
  EXPECT_EQ(sim.active_request_count(), 0u);
  // Offline boxes are not idle (workloads must skip them).
  EXPECT_FALSE(sim.box_idle(0));
  for (int t = 1; t < 6; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);  // no dangling request ever stalled
  EXPECT_EQ(sim.report().sessions_completed, 0u);  // aborted != completed
}

TEST(Churn, FailureAfterCompletedSessionsAbortsOnlyTheLiveOne) {
  // Box 0 watches two videos to the end, then fails halfway through a third
  // while box 1 watches the same video: only box 0's live session dies.
  ChurnWorld world(4, 1, 2.0, /*T=*/4, /*videos=*/2);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.verify_incremental = true;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  for (const m::VideoId video : {0u, 1u}) {
    sim.step({{0, video}});
    while (!sim.box_idle(0)) sim.step({});
  }
  sim.step({{0, 1}, {1, 1}});  // settles the second session, admits two
  EXPECT_EQ(sim.report().sessions_completed, 2u);
  sim.step({});
  ASSERT_FALSE(sim.box_idle(0));
  EXPECT_EQ(sim.swarms().size(1), 2u);

  sim.set_box_online(0, false);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
  EXPECT_EQ(sim.swarms().size(1), 1u);
  EXPECT_GT(sim.active_request_count(), 0u);  // box 1 keeps downloading
  while (!sim.box_idle(1)) sim.step({});
  sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_completed, 3u);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
}

TEST(Churn, FailedSoleHolderStallsViewer) {
  ChurnWorld world(3, 1, 1.0);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});  // served by holder box 2
  EXPECT_TRUE(sim.report().success);
  sim.set_box_online(2, false);  // k=1: the only replica is gone
  sim.step({});
  EXPECT_FALSE(sim.report().success);
  EXPECT_EQ(sim.report().first_stall, 1);
}

TEST(Churn, ReplicationSurvivesSingleHolderFailure) {
  ChurnWorld world(4, 2, 1.0);  // k=2 holders (boxes 2 and 3)
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  sim.set_box_online(3, false);  // one holder down, box 2 remains
  for (int t = 1; t < 12; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_completed, 1u);
}

TEST(Churn, RecoveryRestoresServiceCapacity) {
  ChurnWorld world(3, 1, 1.0);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.set_box_online(2, false);
  sim.step({{0, 0}});  // demand while the only holder is down -> stall
  EXPECT_FALSE(sim.report().success);

  // Fresh world: recover before the demand; service works again.
  ChurnWorld world2(3, 1, 1.0);
  s::Simulator sim2(world2.catalog, world2.profile, world2.allocation,
                    strategy);
  sim2.set_box_online(2, false);
  sim2.step({});
  sim2.set_box_online(2, true);
  sim2.step({{0, 0}});
  for (int t = 2; t < 14; ++t) sim2.step({});
  EXPECT_TRUE(sim2.report().success);
  EXPECT_EQ(sim2.report().sessions_completed, 1u);
}

TEST(Churn, OfflineBoxRejectsDemands) {
  ChurnWorld world(3, 1, 2.0);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.set_box_online(0, false);
  sim.step({{0, 0}});
  EXPECT_EQ(sim.report().demands_admitted, 0u);
  EXPECT_EQ(sim.report().demands_rejected, 1u);
}

TEST(Churn, FailedCacheServerDropsOutOfCandidates) {
  // Box 0 views first (cache), box 1 joins later leaning on box 0's cache;
  // box 0 fails -> box 1 must fall back to the static holder alone. With the
  // holder's capacity at 1 and only box 1 active, that still works.
  ChurnWorld world(3, 1, 1.0, /*T=*/12);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  sim.step({{1, 0}});
  sim.set_box_online(0, false);  // kills box 0's session AND its cache
  for (int t = 2; t < 16; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
  EXPECT_EQ(sim.report().sessions_completed, 1u);  // box 1 finished
}

TEST(Churn, DoubleFailureIsIdempotent) {
  ChurnWorld world(3, 1, 2.0);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.set_box_online(2, false);
  sim.set_box_online(2, false);
  EXPECT_EQ(sim.report().box_failures, 1u);
  sim.set_box_online(2, true);
  sim.set_box_online(2, true);
  EXPECT_EQ(sim.report().box_failures, 1u);
}

TEST(Churn, CapacityLedgerTracksFailures) {
  ChurnWorld world(4, 2, 1.5, 10, 1, 2);  // c=2: 3 slots per box
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  const auto full = sim.total_capacity_slots();
  sim.set_box_online(1, false);
  EXPECT_EQ(sim.total_capacity_slots(), full - 3);
  EXPECT_EQ(sim.capacity_slots(1), 0u);
  sim.set_box_online(1, true);
  EXPECT_EQ(sim.total_capacity_slots(), full);
  EXPECT_EQ(sim.capacity_slots(1), 3u);
}

TEST(Churn, RelayFailureAbortsForwardedSession) {
  // Poor box 0 relays through a rich box; killing the relay mid-playback
  // aborts the poor box's session (the reserved channel died).
  const auto profile = m::CapacityProfile::two_class(4, 1, 0.5, 2.0, 4.0, 8.0);
  const m::Catalog catalog(2, 8, 16);
  std::vector<a::Placement> placements;
  for (m::StripeId stripe = 0; stripe < catalog.stripe_count(); ++stripe)
    placements.push_back({3, stripe});
  const a::Allocation allocation(
      4, catalog.stripe_count(),
      a::group_by_stripe(catalog.stripe_count(), placements));
  const auto plan = h::Compensator::plan(profile, 1.5, 8, 1.0);
  ASSERT_TRUE(plan.has_value());
  const m::BoxId relay = plan->relay[0];
  ASSERT_NE(relay, m::kInvalidBox);

  h::RelayStrategy strategy(*plan);
  s::SimulatorOptions options;
  options.capacity_override = plan->capacity_slots();
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  sim.step({{0, 0}});
  sim.step({});
  EXPECT_EQ(sim.swarms().size(0), 1u);
  sim.set_box_online(relay, false);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
  EXPECT_EQ(sim.swarms().size(0), 0u);
}

TEST(Churn, RelayedRequestsLeaveTheRelayWhenTheyEnd) {
  // A forwarded session that ran to its end leaves nothing for a failure of
  // its relay to abort; one that the relay's failure cut short is gone when
  // the relay fails again. Debug builds check each box's count of relayed
  // requests against a rescan at every failure, so a count that missed a
  // retirement or an abort trips there.
  const auto profile = m::CapacityProfile::two_class(4, 1, 0.5, 2.0, 4.0, 8.0);
  const m::Catalog catalog(2, 8, 16);
  std::vector<a::Placement> placements;
  for (m::StripeId stripe = 0; stripe < catalog.stripe_count(); ++stripe)
    placements.push_back({3, stripe});
  const a::Allocation allocation(
      4, catalog.stripe_count(),
      a::group_by_stripe(catalog.stripe_count(), placements));
  const auto plan = h::Compensator::plan(profile, 1.5, 8, 1.0);
  ASSERT_TRUE(plan.has_value());
  const m::BoxId relay = plan->relay[0];
  ASSERT_NE(relay, m::kInvalidBox);

  h::RelayStrategy strategy(*plan);
  s::SimulatorOptions options;
  options.capacity_override = plan->capacity_slots();
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  sim.step({{0, 0}});
  for (int t = 1; t < 40; ++t) sim.step({});
  ASSERT_EQ(sim.report().sessions_completed, 1u);
  ASSERT_EQ(sim.active_request_count(), 0u);
  sim.set_box_online(relay, false);
  EXPECT_EQ(sim.report().sessions_aborted, 0u);
  sim.set_box_online(relay, true);

  sim.step({{0, 1}});
  sim.step({});
  ASSERT_GT(sim.active_request_count(), 0u);
  sim.set_box_online(relay, false);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
  EXPECT_EQ(sim.active_request_count(), 0u);
  sim.set_box_online(relay, true);
  sim.set_box_online(relay, false);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
  EXPECT_TRUE(sim.report().success);
}

TEST(Churn, RelayFallbackWhenRelayAlreadyDown) {
  // If the relay is down when the demand arrives, the poor box degrades to
  // direct preloading (and here succeeds: the holder has capacity).
  const auto profile = m::CapacityProfile::two_class(4, 1, 0.5, 2.0, 4.0, 8.0);
  const m::Catalog catalog(2, 8, 16);
  std::vector<a::Placement> placements;
  for (m::StripeId stripe = 0; stripe < catalog.stripe_count(); ++stripe)
    placements.push_back({3, stripe});
  const a::Allocation allocation(
      4, catalog.stripe_count(),
      a::group_by_stripe(catalog.stripe_count(), placements));
  const auto plan = h::Compensator::plan(profile, 1.5, 8, 1.0);
  ASSERT_TRUE(plan.has_value());
  const m::BoxId relay = plan->relay[0];

  h::RelayStrategy strategy(*plan);
  s::SimulatorOptions options;
  options.capacity_override = plan->capacity_slots();
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  sim.set_box_online(relay, false);
  sim.step({{0, 0}});
  EXPECT_EQ(sim.report().demands_admitted, 1u);
  // All requests are direct (requester == the poor box itself).
  EXPECT_GT(sim.active_request_count(), 0u);
  for (int t = 1; t < 22; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
}

namespace {

/// Box 0 downloads video 0's one stripe itself at `now`, and has box 1
/// download the same stripe `lag` rounds later into box 1's cache alone, so
/// box 0's playback, and its end event, come T + 1 rounds after `now`, while
/// box 1's request retires T + lag - 1 rounds after it. Every other demand
/// preloads.
class LateRelayStrategy final : public s::RequestStrategy {
 public:
  explicit LateRelayStrategy(m::Round lag) : lag_(lag) {}

  void plan(m::BoxId b, m::VideoId v, std::uint64_t ticket, m::Round now,
            s::Simulator& sim, std::vector<s::PlannedRequest>& out) override {
    if (b != 0 || v != 0) {
      preloading_.plan(b, v, ticket, now, sim, out);
      return;
    }
    const m::StripeId stripe = sim.catalog().stripe_id(v, 0);
    out.push_back(s::PlannedRequest::direct(0, stripe, now));
    s::PlannedRequest relayed;
    relayed.requester = 1;
    relayed.stripe = stripe;
    relayed.issue = now + lag_;
    relayed.grants = {s::CacheGrant{1, now + lag_}};
    out.push_back(relayed);
  }
  [[nodiscard]] std::string name() const override { return "late_relay"; }

 private:
  m::Round lag_;
  s::PreloadingStrategy preloading_;
};

}  // namespace

TEST(Churn, RelayedRequestOutlivingItsSessionKeepsTheRecord) {
  // Box 0's session ends at round 5 while box 1's request for it retires
  // at round 7. The sessions admitted in between must not take its id, and
  // a failure of box 1 in between aborts nothing: the playback is over.
  ChurnWorld world(6, 2, 2.0, /*T=*/4, /*videos=*/2);
  LateRelayStrategy strategy(/*lag=*/4);
  s::SimulatorOptions options;
  options.verify_incremental = true;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}});
  for (int t = 1; t < 5; ++t) sim.step({});
  ASSERT_EQ(sim.active_request_count(), 1u);  // box 1's, active since 4
  sim.step({{2, 1}, {0, 1}});  // round 5: box 0's end event, two admissions
  EXPECT_EQ(sim.report().sessions_completed, 1u);
  EXPECT_EQ(sim.report().demands_admitted, 3u);
  EXPECT_EQ(sim.active_request_count(), 3u);

  sim.set_box_online(1, false);
  EXPECT_EQ(sim.report().sessions_aborted, 0u);
  EXPECT_EQ(sim.swarms().size(1), 2u);
  EXPECT_EQ(sim.active_request_count(), 3u);

  sim.step({});
  sim.step({});  // round 7: box 1's request retires, the record is released
  EXPECT_EQ(sim.active_request_count(), 2u);
  sim.step({{3, 0}});  // a later admission, free to reuse the id
  for (int t = 9; t < 20; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_completed, 4u);
  EXPECT_EQ(sim.report().sessions_aborted, 0u);
  EXPECT_EQ(sim.active_request_count(), 0u);
}

TEST(Churn, FailureSparesTheSessionThatReusedItsFinishedId) {
  // Box 0's first session ends and its record is released before box 1 is
  // admitted, so box 1's session may take the same id. A failure of box 0
  // then aborts only what box 0 itself watches.
  ChurnWorld world(6, 2, 2.0, /*T=*/4, /*videos=*/2);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.verify_incremental = true;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}});
  for (int t = 1; t < 5; ++t) sim.step({});
  sim.step({{1, 1}});  // round 5: box 0's session ends, box 1's begins
  ASSERT_EQ(sim.report().sessions_completed, 1u);
  ASSERT_TRUE(sim.box_idle(0));

  sim.set_box_online(0, false);
  EXPECT_EQ(sim.report().sessions_aborted, 0u);
  EXPECT_EQ(sim.swarms().size(1), 1u);
  EXPECT_EQ(sim.active_request_count(), 1u);

  sim.set_box_online(0, true);
  sim.step({{0, 1}});
  sim.set_box_online(0, false);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
  EXPECT_EQ(sim.swarms().size(1), 1u);
  EXPECT_EQ(sim.active_request_count(), 1u);
  for (int t = 7; t < 16; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_completed, 2u);
  EXPECT_EQ(sim.report().sessions_aborted, 1u);
}

TEST(Churn, SoakWithRandomChurnKeepsInvariants) {
  // Random fail/recover cycles against a replicated catalog while a Zipf
  // audience plays; verify_incremental cross-checks the matcher throughout.
  const std::uint32_t n = 24, c = 2, k = 6;
  const m::Catalog catalog(8, c, 8);
  const auto profile = m::CapacityProfile::homogeneous(n, 2.5, 4.0);
  p2pvod::util::Rng rng(0xC1C1);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, k, rng);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  options.verify_incremental = true;
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  w::ZipfDemand audience(8, 0.8, 0.2, 0xC2C2);

  std::vector<bool> down(n, false);
  for (int t = 0; t < 60; ++t) {
    if (t % 5 == 2) {  // fail one box
      const auto b = static_cast<m::BoxId>(rng.next_below(n));
      if (!down[b]) {
        sim.set_box_online(b, false);
        down[b] = true;
      }
    }
    if (t % 7 == 5) {  // recover one box
      for (m::BoxId b = 0; b < n; ++b) {
        if (down[b]) {
          sim.set_box_online(b, true);
          down[b] = false;
          break;
        }
      }
    }
    sim.step(audience.demands(sim));
  }
  const auto& report = sim.report();
  EXPECT_GT(report.box_failures, 0u);
  EXPECT_GT(report.sessions_completed, 0u);
  // Continuity may dip (k=6 tolerates most failures) but never collapses.
  EXPECT_GT(report.continuity(), 0.9);
}
