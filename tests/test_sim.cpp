// Unit tests for src/sim: swarm registry, cache index availability rule,
// strategies, and hand-checkable end-to-end simulator scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/permutation.hpp"
#include "hetero/compensation.hpp"
#include "hetero/relay.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/cache.hpp"
#include "sim/calendar.hpp"
#include "sim/simulator.hpp"
#include "sim/strategy.hpp"
#include "sim/swarm.hpp"
#include "util/rng.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/trace.hpp"
#include "workload/zipf.hpp"

namespace s = p2pvod::sim;
namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace w = p2pvod::workload;

// ----------------------------------------------------------------- swarm

TEST(Swarm, TicketsAreSequential) {
  s::SwarmRegistry reg(2);
  EXPECT_EQ(reg.enter(0, 0), 0u);
  EXPECT_EQ(reg.enter(0, 0), 1u);
  EXPECT_EQ(reg.enter(1, 0), 0u);
  EXPECT_EQ(reg.total_entries(0), 2u);
}

TEST(Swarm, SizeTracksEnterLeave) {
  s::SwarmRegistry reg(1);
  reg.enter(0, 0);
  reg.enter(0, 0);
  EXPECT_EQ(reg.size(0), 2u);
  reg.leave(0);
  EXPECT_EQ(reg.size(0), 1u);
  EXPECT_EQ(reg.peak_size(), 2u);
}

TEST(Swarm, LeaveOnEmptyThrows) {
  s::SwarmRegistry reg(1);
  EXPECT_THROW(reg.leave(0), std::logic_error);
}

TEST(Swarm, AdmissibleJoinsFollowGrowthRule) {
  s::SwarmRegistry reg(1);
  reg.begin_round(0);
  // f=0: ceil(max(0,1)*2) = 2 joins allowed.
  EXPECT_EQ(reg.admissible_joins(0, 2.0), 2u);
  reg.enter(0, 0);
  reg.enter(0, 0);
  EXPECT_EQ(reg.admissible_joins(0, 2.0), 0u);
  reg.begin_round(1);
  // f=2: up to ceil(4)=4, so 2 more.
  EXPECT_EQ(reg.admissible_joins(0, 2.0), 2u);
}

TEST(Swarm, OutOfRangeThrows) {
  s::SwarmRegistry reg(1);
  EXPECT_THROW((void)reg.size(1), std::out_of_range);
  EXPECT_THROW((void)reg.enter(1, 0), std::out_of_range);
}

// --- growth-rule edge cases (previously only exercised through scenarios) ---

TEST(Swarm, AdmissibleJoinsWithMuBelowOne) {
  // µ < 1 is outside the paper's model (configs reject it) but the registry
  // must still behave: ceil(max(f,1)·µ) keeps at least one admissible join
  // into an empty swarm and shrinks — never underflows — a populated one.
  s::SwarmRegistry reg(1);
  reg.begin_round(0);
  // f=0: ceil(max(0,1)*0.5) = ceil(0.5) = 1 join allowed.
  EXPECT_EQ(reg.admissible_joins(0, 0.5), 1u);
  reg.enter(0, 0);
  reg.enter(0, 0);
  reg.enter(0, 0);
  reg.begin_round(1);
  // f=3: limit ceil(1.5) = 2 < current size 3 — clamped at 0, no underflow.
  EXPECT_EQ(reg.admissible_joins(0, 0.5), 0u);
}

TEST(Swarm, EmptySwarmReentryAfterFullDrain) {
  s::SwarmRegistry reg(1);
  reg.enter(0, 0);
  reg.enter(0, 0);
  reg.leave(0);
  reg.leave(0);
  EXPECT_EQ(reg.size(0), 0u);
  // Re-entry after a full drain: growth restarts from the empty-swarm floor
  // f=1, and the lifetime ticket counter keeps counting (tickets are entry
  // numbers, not population).
  reg.begin_round(5);
  EXPECT_EQ(reg.admissible_joins(0, 1.3), 2u);  // ceil(1.3) = 2
  EXPECT_EQ(reg.enter(0, 5), 2u);               // third lifetime entry
  EXPECT_EQ(reg.size(0), 1u);
  EXPECT_EQ(reg.total_entries(0), 3u);
  EXPECT_EQ(reg.peak_size(), 2u);  // peak survives the drain
}

TEST(Swarm, AdmissibleJoinsClampAtCeiling) {
  s::SwarmRegistry reg(1);
  reg.begin_round(0);
  reg.enter(0, 0);
  reg.enter(0, 0);
  reg.begin_round(1);
  // f_start=2, µ=1.3: limit ceil(2.6) = 3, one more join admissible.
  EXPECT_EQ(reg.admissible_joins(0, 1.3), 1u);
  reg.enter(0, 1);
  EXPECT_EQ(reg.admissible_joins(0, 1.3), 0u);
  // Joins beyond the ceiling (a generator ignoring the limiter) clamp at 0
  // instead of wrapping around.
  reg.enter(0, 1);
  EXPECT_EQ(reg.size(0), 4u);
  EXPECT_EQ(reg.admissible_joins(0, 1.3), 0u);
  // Integer-valued µ on an exact boundary: f_start=2, µ=2 -> limit 4 == size.
  reg.begin_round(2);
  EXPECT_EQ(reg.admissible_joins(0, 2.0), 4u);  // f_start=4: ceil(8)-4
  EXPECT_EQ(reg.admissible_joins(0, 1.0), 0u);  // limit 4 == current size
}

// ----------------------------------------------------------------- cache

TEST(Cache, EarlierJoinerServesLaterRequest) {
  s::CacheIndex cache(/*box_count=*/4, /*stripe_count=*/1, /*window=*/8);
  cache.grant(0, /*box=*/3, /*entry=*/5);
  std::vector<m::BoxId> out;
  // Request issued at 6 (strictly after 5): box 3 qualifies at round 7.
  EXPECT_EQ(cache.collect_servers(0, 6, 7, m::kInvalidBox, out), 1u);
  EXPECT_EQ(out[0], 3u);
}

TEST(Cache, SameRoundJoinersCannotServeEachOther) {
  s::CacheIndex cache(4, 1, 8);
  cache.grant(0, 3, 5);
  std::vector<m::BoxId> out;
  // Request also issued at 5: strict inequality excludes box 3 (§2.2).
  EXPECT_EQ(cache.collect_servers(0, 5, 7, m::kInvalidBox, out), 0u);
}

TEST(Cache, RetentionWindowExpires) {
  s::CacheIndex cache(4, 1, 4);
  cache.grant(0, 3, 5);
  std::vector<m::BoxId> out;
  EXPECT_EQ(cache.collect_servers(0, 9, 9, m::kInvalidBox, out), 1u);
  out.clear();
  // now=10: oldest retained entry is 10-4=6 > 5.
  EXPECT_EQ(cache.collect_servers(0, 9, 10, m::kInvalidBox, out), 0u);
}

TEST(Cache, ExcludesRequesterItself) {
  s::CacheIndex cache(4, 1, 8);
  cache.grant(0, 3, 5);
  std::vector<m::BoxId> out;
  EXPECT_EQ(cache.collect_servers(0, 6, 7, /*exclude=*/3, out), 0u);
}

TEST(Cache, FutureGrantsInvisibleToEarlierRequests) {
  s::CacheIndex cache(4, 1, 8);
  cache.grant(0, 3, 9);  // relay-lagged entry in the future
  std::vector<m::BoxId> out;
  EXPECT_EQ(cache.collect_servers(0, 7, 8, m::kInvalidBox, out), 0u);
}

TEST(Cache, PruneDropsExpiredEntries) {
  s::CacheIndex cache(4, 2, 4);
  cache.grant(0, 1, 0);
  cache.grant(1, 2, 6);
  EXPECT_EQ(cache.entry_count(), 2u);
  cache.prune(10);  // oldest kept entry: 6
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(Cache, RemovedBoxEntriesAreNeverReportedExpired) {
  // An entry that died with its box leaves the cache at remove_box, not at
  // its expiry round; the box's next entry expires on its own schedule.
  s::CacheIndex cache(4, 1, /*window=*/3);
  cache.grant(0, /*box=*/1, /*entry=*/3);  // would expire at 3+3+1 = 7
  EXPECT_EQ(cache.remove_box(1), 1u);
  cache.grant(0, 1, /*entry=*/4);  // expires at 8
  std::vector<s::CacheExpiry> expired;
  cache.prune(7, &expired);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(cache.entry_count(), 1u);
  cache.prune(8, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].stripe, 0u);
  EXPECT_EQ(expired[0].box, 1u);
  EXPECT_EQ(expired[0].entry, 4);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(Cache, DeadEntryKeepsItsSlotUntilItsExpiry) {
  // Entries live in a pool whose slots are recycled. The entry that dies
  // with its box keeps its slot until its own expiry event: if it were freed
  // at remove_box, a later grant would take it, and the dead entry's event
  // would then drop (and report) that newer entry.
  constexpr m::Round kWindow = 4;
  s::CacheIndex cache(/*box_count=*/4, /*stripe_count=*/2, kWindow);
  // Put two slots on the free list: grant and expire two entries.
  cache.grant(0, 0, /*entry=*/0);
  cache.grant(1, 0, /*entry=*/0);
  std::vector<s::CacheExpiry> expired;
  cache.prune(kWindow + 1, &expired);
  ASSERT_EQ(expired.size(), 2u);
  ASSERT_EQ(cache.entry_count(), 0u);

  // The doomed entry expires at round 6 + kWindow + 1 = 11.
  cache.grant(0, /*box=*/1, /*entry=*/6);
  EXPECT_EQ(cache.remove_box(1), 1u);
  // Drain the free list and then some: every free slot is taken.
  for (m::BoxId box : {m::BoxId{2}, m::BoxId{3}, m::BoxId{0}})
    cache.grant(box % 2, box, /*entry=*/7);
  const auto servers = [&](m::StripeId stripe) {
    std::vector<m::BoxId> out;
    cache.collect_servers(stripe, /*issue=*/8, /*now=*/11, m::kInvalidBox,
                          out);
    std::sort(out.begin(), out.end());
    return out;
  };
  ASSERT_EQ(servers(0), (std::vector<m::BoxId>{0, 2}));
  ASSERT_EQ(servers(1), (std::vector<m::BoxId>{3}));

  // Through the dead entry's expiry round, but before the live ones'.
  expired.clear();
  for (m::Round now = kWindow + 2; now <= 11; ++now) cache.prune(now, &expired);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_EQ(servers(0), (std::vector<m::BoxId>{0, 2}));
  EXPECT_EQ(servers(1), (std::vector<m::BoxId>{3}));
  // The live entries still leave on their own schedule.
  cache.prune(12, &expired);
  EXPECT_EQ(expired.size(), 3u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(Cache, RejectsUnknownBox) {
  s::CacheIndex cache(/*box_count=*/3, /*stripe_count=*/2, /*window=*/4);
  EXPECT_THROW(cache.grant(0, 3, 1), std::out_of_range);
  EXPECT_THROW(cache.grant(0, m::kInvalidBox, 1), std::out_of_range);
  EXPECT_THROW(cache.remove_box(3), std::out_of_range);
  EXPECT_EQ(cache.entry_count(), 0u);
  cache.grant(1, 2, 1);
  EXPECT_EQ(cache.remove_box(2), 1u);
}

namespace {

using Granted = std::tuple<m::StripeId, m::BoxId, m::Round>;

/// The cache as a full scan over every stripe: the semantics CacheIndex
/// keeps while visiting only the entries that change.
struct FullScanCache {
  FullScanCache(std::uint32_t stripes, m::Round window)
      : per_stripe(stripes), window(window) {}

  std::vector<m::BoxId> servers(m::StripeId stripe, m::Round issue,
                                m::Round now, m::BoxId exclude) const {
    std::vector<m::BoxId> out;
    for (const auto& [box, entry] : per_stripe[stripe]) {
      if (entry >= now - window && entry < issue && box != exclude)
        out.push_back(box);
    }
    return out;
  }
  std::vector<Granted> prune(m::Round now) {
    std::vector<Granted> expired;
    for (m::StripeId stripe = 0; stripe < per_stripe.size(); ++stripe) {
      std::erase_if(per_stripe[stripe], [&](const auto& e) {
        if (e.second >= now - window) return false;
        expired.emplace_back(stripe, e.first, e.second);
        return true;
      });
    }
    return expired;
  }
  std::uint64_t remove_box(m::BoxId box, std::vector<m::StripeId>& affected) {
    std::uint64_t removed = 0;
    for (m::StripeId stripe = 0; stripe < per_stripe.size(); ++stripe) {
      const auto dropped = std::erase_if(
          per_stripe[stripe], [box](const auto& e) { return e.first == box; });
      if (dropped > 0) affected.push_back(stripe);
      removed += dropped;
    }
    return removed;
  }
  std::uint64_t entry_count() const {
    std::uint64_t total = 0;
    for (const auto& entries : per_stripe) total += entries.size();
    return total;
  }

  std::vector<std::vector<std::pair<m::BoxId, m::Round>>> per_stripe;
  m::Round window;
};

template <typename T>
std::vector<T> sorted(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace

TEST(Cache, LockstepAgainstFullScan) {
  // Random grants up to four rounds ahead (the relay's reach), duplicates
  // and several boxes per stripe, random box failures and a prune every
  // round. Every answer must match a full scan over the catalog.
  constexpr std::uint32_t kBoxes = 6;
  constexpr std::uint32_t kStripes = 5;
  constexpr m::Round kWindow = 3;
  s::CacheIndex cache(kBoxes, kStripes, kWindow);
  FullScanCache reference(kStripes, kWindow);
  p2pvod::util::Rng rng(0xCAC4E);
  std::uint64_t reported = 0;
  std::uint64_t removed = 0;
  std::uint64_t reported_due = 0;

  const auto check = [&](m::Round now) {
    ASSERT_EQ(cache.entry_count(), reference.entry_count());
    for (m::StripeId stripe = 0; stripe < kStripes; ++stripe) {
      for (m::Round issue = now - 1; issue <= now + 5; ++issue) {
        for (const m::BoxId exclude : {m::kInvalidBox, m::BoxId{2}}) {
          std::vector<m::BoxId> got;
          cache.collect_servers(stripe, issue, now, exclude, got);
          ASSERT_EQ(sorted(got),
                    sorted(reference.servers(stripe, issue, now, exclude)))
              << "stripe " << stripe << " issue " << issue << " at " << now;
        }
      }
    }
  };

  Granted last{0, 0, 0};
  for (m::Round now = 0; now < 400; ++now) {
    const auto grants = rng.next_below(5);
    for (std::uint64_t g = 0; g < grants; ++g) {
      Granted grant = last;
      if (now == 0 || !rng.next_bool(0.2)) {  // else repeat the last grant
        grant = {static_cast<m::StripeId>(rng.next_below(kStripes)),
                 static_cast<m::BoxId>(rng.next_below(kBoxes)),
                 now + rng.next_between(0, 4)};
      }
      last = grant;
      const auto [stripe, box, entry] = grant;
      cache.grant(stripe, box, entry);
      reference.per_stripe[stripe].emplace_back(box, entry);
      ASSERT_NO_FATAL_FAILURE(check(now));
    }
    if (rng.next_bool(0.3)) {
      const auto box = static_cast<m::BoxId>(rng.next_below(kBoxes));
      std::vector<m::StripeId> got = {99};  // appended to, never cleared
      std::vector<m::StripeId> want = {99};
      const std::uint64_t count = cache.remove_box(box, &got);
      ASSERT_EQ(count, reference.remove_box(box, want)) << "at " << now;
      ASSERT_EQ(got, want) << "box " << box << " at " << now;
      removed += count;
      ASSERT_NO_FATAL_FAILURE(check(now));
    }
    // Every 50 rounds, a grant that is already due: its expiry round passed
    // at the last prune, so this round's prune must report it.
    std::optional<Granted> due;
    if (now % 50 == 25) {
      due = Granted{static_cast<m::StripeId>(now % kStripes),
                    static_cast<m::BoxId>(now % kBoxes), now - kWindow - 2};
      const auto [stripe, box, entry] = *due;
      cache.grant(stripe, box, entry);
      reference.per_stripe[stripe].emplace_back(box, entry);
    }
    std::vector<s::CacheExpiry> expired;
    cache.prune(now, &expired);
    std::vector<Granted> got;
    for (const s::CacheExpiry& e : expired)
      got.emplace_back(e.stripe, e.box, e.entry);
    ASSERT_EQ(sorted(got), sorted(reference.prune(now))) << "at " << now;
    if (due) {
      ASSERT_NE(std::find(got.begin(), got.end(), *due), got.end())
          << "at " << now;
      ++reported_due;
    }
    reported += got.size();
    ASSERT_NO_FATAL_FAILURE(check(now));
  }
  // The walk must have exercised both ways out of the cache.
  EXPECT_GT(reported, 100u);
  EXPECT_GT(removed, 50u);
  EXPECT_EQ(reported_due, 8u);
}

TEST(Cache, ReportsExpiriesByRoundThenGrantOrder) {
  s::CacheIndex cache(/*box_count=*/4, /*stripe_count=*/2, /*window=*/2);
  cache.grant(1, 0, 5);  // leaves the window at round 8
  cache.grant(0, 1, 4);  // at 7
  cache.grant(0, 2, 5);  // at 8
  std::vector<s::CacheExpiry> expired;
  cache.prune(6, &expired);
  EXPECT_TRUE(expired.empty());
  // Both due before round 6, which is pruned already: the next prune drops
  // them first, in expiry order.
  cache.grant(0, 3, 3);  // at 6
  cache.grant(1, 3, 2);  // at 5
  cache.prune(8, &expired);
  std::vector<Granted> got;
  for (const s::CacheExpiry& e : expired)
    got.emplace_back(e.stripe, e.box, e.entry);
  EXPECT_EQ(got, (std::vector<Granted>{
                     {1, 3, 2}, {0, 3, 3}, {0, 1, 4}, {1, 0, 5}, {0, 2, 5}}));
  EXPECT_EQ(cache.entry_count(), 0u);
}

// ----------------------------------------------------------------- calendar

namespace {

/// The events one take_through() call visits, in visit order.
std::vector<int> take(s::RoundCalendar<int>& calendar, m::Round round) {
  std::vector<int> seen;
  calendar.take_through(round, [&seen](int event) { seen.push_back(event); });
  return seen;
}

}  // namespace

TEST(RoundCalendar, TakesByRoundThenInOrderAddedAtAnyHorizon) {
  s::RoundCalendar<int> calendar;
  calendar.add(3, 30);
  calendar.add(1, 10);
  calendar.add(100, 1000);  // far beyond the first ring: it grows
  calendar.add(3, 31);
  calendar.add(2, 20);
  EXPECT_EQ(take(calendar, 0), std::vector<int>{});
  EXPECT_EQ(take(calendar, 2), (std::vector<int>{10, 20}));
  calendar.add(40, 400);
  calendar.add(300, 3000);  // grows again, with events held
  EXPECT_EQ(take(calendar, 99), (std::vector<int>{30, 31, 400}));
  EXPECT_EQ(take(calendar, 100), std::vector<int>{1000});
  EXPECT_EQ(take(calendar, 1000), std::vector<int>{3000});
  EXPECT_EQ(take(calendar, 2000), std::vector<int>{});
}

TEST(RoundCalendar, AnEventForAPassedRoundIsDueAtTheNextTake) {
  s::RoundCalendar<int> calendar;
  calendar.add(6, 60);
  EXPECT_EQ(take(calendar, 5), std::vector<int>{});
  calendar.add(4, 40);  // rounds 4 and 2 have passed
  calendar.add(2, 20);
  calendar.add(4, 41);
  calendar.add(7, 70);
  EXPECT_EQ(take(calendar, 6), (std::vector<int>{20, 40, 41, 60}));
  EXPECT_EQ(take(calendar, 7), std::vector<int>{70});
  calendar.add(-3, -30);  // negative rounds are rounds too
  EXPECT_EQ(take(calendar, -4), std::vector<int>{});
  EXPECT_EQ(take(calendar, -3), std::vector<int>{-30});
}

TEST(RoundCalendar, EraseIfAndForEachReachEveryEventNotTaken) {
  s::RoundCalendar<int> calendar;
  for (int i = 0; i < 40; ++i) calendar.add(i % 20, i);
  EXPECT_EQ(take(calendar, 4).size(), 10u);  // rounds 0..4, two events each
  calendar.add(1, 100);                       // a passed round
  calendar.erase_if([](int event) { return event % 2 == 1; });
  std::vector<int> left;
  calendar.for_each([&left](int event) { left.push_back(event); });
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<int>{6, 8, 10, 12, 14, 16, 18, 26, 28, 30,
                                    32, 34, 36, 38, 100}));
  EXPECT_EQ(take(calendar, 19), (std::vector<int>{100, 6, 26, 8, 28, 10, 30,
                                                  12, 32, 14, 34, 16, 36, 18,
                                                  38}));
}

TEST(RoundCalendar, AThrowingVisitLeavesItsRoundForTheNextTake) {
  s::RoundCalendar<int> calendar;
  calendar.add(0, 1);
  calendar.add(1, 2);
  calendar.add(1, 3);
  std::vector<int> seen;
  EXPECT_THROW(calendar.take_through(1,
                                     [&seen](int event) {
                                       if (event == 3)
                                         throw std::runtime_error("visit");
                                       seen.push_back(event);
                                     }),
               std::runtime_error);
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
  // Round 0 was taken; round 1 is visited again, whole.
  EXPECT_EQ(take(calendar, 1), (std::vector<int>{2, 3}));
}

// ----------------------------------------------------------------- fixtures

namespace {

/// n boxes, one video with c stripes all stored on the last `holders` boxes,
/// k = holders. Simple hand-checkable world.
struct World {
  World(std::uint32_t n, std::uint32_t c, m::Round T, double u,
        std::uint32_t holder_count, std::uint32_t videos = 1)
      : catalog(videos, c, T),
        profile(m::CapacityProfile::homogeneous(n, u, 100.0)),
        allocation(build_allocation(n, videos, c, holder_count)) {}

  static a::Allocation build_allocation(std::uint32_t n, std::uint32_t videos,
                                        std::uint32_t c,
                                        std::uint32_t holder_count) {
    std::vector<a::Placement> placements;
    for (std::uint32_t v = 0; v < videos; ++v) {
      for (std::uint32_t i = 0; i < c; ++i) {
        for (std::uint32_t h = 0; h < holder_count; ++h) {
          placements.push_back({n - 1 - h, v * c + i});
        }
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

// ----------------------------------------------------------------- strategy

TEST(Strategy, PreloadingStaggersRequests) {
  World world(4, 3, 12, 2.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  std::vector<s::PlannedRequest> plans;
  strategy.plan(/*box=*/0, /*video=*/0, /*ticket=*/1, /*now=*/5, sim, plans);
  ASSERT_EQ(plans.size(), 3u);
  int at_now = 0, at_next = 0;
  for (const auto& p : plans) {
    EXPECT_EQ(p.requester, 0u);
    if (p.issue == 5) {
      ++at_now;
      EXPECT_EQ(p.stripe, 1u);  // ticket 1 mod 3
    } else {
      EXPECT_EQ(p.issue, 6);
      ++at_next;
    }
  }
  EXPECT_EQ(at_now, 1);
  EXPECT_EQ(at_next, 2);
}

TEST(Strategy, PreloadIndexCyclesWithTicket) {
  World world(4, 3, 12, 2.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  for (std::uint64_t ticket = 0; ticket < 6; ++ticket) {
    std::vector<s::PlannedRequest> plans;
    strategy.plan(0, 0, ticket, 0, sim, plans);
    for (const auto& p : plans) {
      if (p.issue == 0) {
        EXPECT_EQ(p.stripe, ticket % 3);
      }
    }
  }
}

TEST(Strategy, NaiveIssuesEverythingNow) {
  World world(4, 3, 12, 2.0, 1);
  s::NaiveStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  std::vector<s::PlannedRequest> plans;
  strategy.plan(0, 0, 4, 7, sim, plans);
  ASSERT_EQ(plans.size(), 3u);
  for (const auto& p : plans) EXPECT_EQ(p.issue, 7);
}

TEST(Strategy, SkipsLocallyStoredStripes) {
  World world(4, 3, 12, 2.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  std::vector<s::PlannedRequest> plans;
  // Box 3 is the holder of all stripes: nothing to request.
  strategy.plan(3, 0, 0, 2, sim, plans);
  EXPECT_TRUE(plans.empty());
}

TEST(Strategy, FactoryNames) {
  EXPECT_EQ(s::make_strategy(s::StrategyKind::kPreloading)->name(),
            "preloading");
  EXPECT_EQ(s::make_strategy(s::StrategyKind::kNaive)->name(), "naive");
}

// ----------------------------------------------------------------- simulator

TEST(Simulator, SingleViewerServedByHolder) {
  World world(2, 1, 4, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});               // demand at round 0
  for (int t = 1; t < 8; ++t) sim.step({});
  const auto& report = sim.report();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.demands_admitted, 1u);
  EXPECT_EQ(report.requests_issued, 1u);
  EXPECT_EQ(report.chunks_served, 4u);  // T = 4
  EXPECT_EQ(report.sessions_completed, 1u);
}

TEST(Simulator, CacheChainServesSecondViewer) {
  // One holder with capacity 1; two staggered viewers. The second must be
  // served from the first viewer's playback cache.
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});  // round 0: box 0 joins
  sim.step({{1, 0}});  // round 1: box 1 joins, must lean on box 0's cache
  for (int t = 2; t < 12; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
  EXPECT_EQ(sim.report().sessions_completed, 2u);
}

TEST(Simulator, SimultaneousJoinersCannotShareCache) {
  // Same as above but both join in the same round: strict t_j < t_i means no
  // cache help, and the single holder slot cannot serve both.
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}, {1, 0}});
  EXPECT_FALSE(sim.report().success);
  EXPECT_EQ(sim.report().first_stall, 0);
  EXPECT_GE(sim.report().stall_witness_size, 2u);
  EXPECT_TRUE(sim.stalled());
}

TEST(Simulator, StalledStrictModeFreezes) {
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}, {1, 0}});
  const auto rounds = sim.report().rounds;
  sim.step({});  // no-op once stalled
  EXPECT_EQ(sim.report().rounds, rounds);
}

TEST(Simulator, NonStrictModeCountsStallsAndContinues) {
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}, {1, 0}});
  for (int t = 1; t < 12; ++t) sim.step({});
  const auto& report = sim.report();
  EXPECT_TRUE(report.success);  // strict-mode flag untouched
  EXPECT_GT(report.chunks_stalled, 0u);
  EXPECT_LT(report.continuity(), 1.0);
  EXPECT_EQ(report.sessions_completed, 2u);  // positions advanced regardless
}

TEST(Simulator, BusyBoxRejectsSecondDemand) {
  World world(2, 1, 6, 1.0, 1, /*videos=*/2);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  sim.step({{0, 1}});  // still playing video 0
  EXPECT_EQ(sim.report().demands_admitted, 1u);
  EXPECT_EQ(sim.report().demands_rejected, 1u);
}

TEST(Simulator, BoxIdleAgainAfterPlayback) {
  World world(2, 1, 4, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  EXPECT_FALSE(sim.box_idle(0));
  // playback_start = 1, ends = 1 + 4 = 5: idle from round 5 on.
  for (int t = 1; t <= 5; ++t) sim.step({});
  EXPECT_TRUE(sim.box_idle(0));
  EXPECT_EQ(sim.report().sessions_completed, 1u);
  EXPECT_EQ(sim.swarms().size(0), 0u);
}

TEST(Simulator, StartupDelayIsThreeRoundsWithPreloading) {
  World world(4, 3, 12, 4.0, 2);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({});          // round 0 idle
  sim.step({{0, 0}});    // demand at round 1
  for (int t = 2; t < 6; ++t) sim.step({});
  const auto& delays = sim.report().startup_delay;
  ASSERT_EQ(delays.total(), 1u);
  // preload at 1, postponed at 2, playback at 3; arrival interval starts at
  // round 0 -> delay 3, the §3 constant.
  EXPECT_EQ(delays.min(), 3);
}

TEST(Simulator, StartupDelayIsTwoRoundsWithNaive) {
  World world(4, 3, 12, 4.0, 2);
  s::NaiveStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({});
  sim.step({{0, 0}});
  for (int t = 2; t < 6; ++t) sim.step({});
  EXPECT_EQ(sim.report().startup_delay.min(), 2);
}

TEST(Simulator, LocalPlaybackNeedsNoRequests) {
  World world(2, 2, 5, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{1, 0}});  // box 1 holds everything
  EXPECT_EQ(sim.report().requests_issued, 0u);
  EXPECT_FALSE(sim.box_idle(1));       // still "watching"
  EXPECT_EQ(sim.swarms().size(0), 1u);  // and in the swarm
  EXPECT_TRUE(sim.report().success);
}

TEST(Simulator, UtilizationBounded) {
  World world(4, 2, 6, 1.0, 2);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  sim.step({{1, 0}});
  for (int t = 2; t < 10; ++t) sim.step({});
  const auto& util = sim.report().upload_utilization;
  EXPECT_GT(util.count(), 0u);
  EXPECT_GE(util.min(), 0.0);
  EXPECT_LE(util.max(), 1.0);
}

TEST(Simulator, VerifyIncrementalAgainstReference) {
  World world(6, 2, 6, 1.5, 2, /*videos=*/3);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.verify_incremental = true;  // throws on disagreement
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}});
  sim.step({{1, 1}});
  sim.step({{2, 2}, {4, 0}});
  for (int t = 3; t < 16; ++t) sim.step({});
  EXPECT_TRUE(sim.report().success);
}

TEST(Simulator, CapacityOverrideRespected) {
  World world(3, 1, 8, 5.0, 1);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.capacity_override = {0, 0, 1};  // throttle the holder to 1 slot
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                   options);
  sim.step({{0, 0}, {1, 0}});  // two simultaneous joiners, one slot
  EXPECT_FALSE(sim.report().success);
}

TEST(Simulator, RejectsMismatchedCapacityOverride) {
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.capacity_override = {1};
  EXPECT_THROW(s::Simulator(world.catalog, world.profile, world.allocation,
                            strategy, options),
               std::invalid_argument);
}

TEST(Simulator, UnknownDemandThrows) {
  World world(2, 1, 4, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  EXPECT_THROW(sim.step({{0, 9}}), std::out_of_range);
  EXPECT_THROW(sim.step({{9, 0}}), std::out_of_range);

  // The throws leave round 0 to run again with its calendars intact: a
  // demand admitted then activates at once and completes on time
  // (playback_start = 1, ends = 1 + T = 5).
  ASSERT_EQ(sim.now(), 0);
  sim.step({{0, 0}});
  EXPECT_EQ(sim.active_request_count(), 1u);
  for (int t = 1; t < 4; ++t) sim.step({});
  EXPECT_EQ(sim.active_request_count(), 0u);  // chunk T-1 went out at round 3
  EXPECT_EQ(sim.report().chunks_served, 4u);
  sim.step({});
  EXPECT_EQ(sim.report().sessions_completed, 0u);
  sim.step({});  // round 5
  EXPECT_EQ(sim.report().sessions_completed, 1u);

  // A step that admits box 0 and then throws keeps the admission: the rerun
  // of round 6 activates it, and it completes on time too (ends = 11).
  EXPECT_THROW(sim.step({{0, 0}, {0, 9}}), std::out_of_range);
  ASSERT_EQ(sim.now(), 6);
  sim.step({});
  EXPECT_EQ(sim.active_request_count(), 1u);
  for (int t = 7; t < 10; ++t) sim.step({});
  EXPECT_EQ(sim.active_request_count(), 0u);
  EXPECT_EQ(sim.report().chunks_served, 8u);
  sim.step({});
  EXPECT_EQ(sim.report().sessions_completed, 1u);
  sim.step({});  // round 11
  EXPECT_EQ(sim.report().sessions_completed, 2u);
  EXPECT_EQ(sim.report().demands_admitted, 2u);
  EXPECT_TRUE(sim.report().success);
}

namespace {

/// Requests stripe 0 for the demanding box `lead` rounds ahead, so the
/// session holds the box for lead + 1 + T rounds.
class FarIssueStrategy final : public s::RequestStrategy {
 public:
  explicit FarIssueStrategy(m::Round lead) : lead_(lead) {}
  void plan(m::BoxId b, m::VideoId, std::uint64_t, m::Round now,
            s::Simulator&, std::vector<s::PlannedRequest>& out) override {
    out.push_back(s::PlannedRequest::direct(b, 0, now + lead_));
  }
  [[nodiscard]] std::string name() const override { return "far-issue"; }

 private:
  m::Round lead_;
};

/// Has box 1 download stripe 0 for the demanding box (a relay, which may be
/// down), and records the tickets it was handed.
class ViaBoxOneStrategy final : public s::RequestStrategy {
 public:
  void plan(m::BoxId b, m::VideoId, std::uint64_t ticket, m::Round now,
            s::Simulator&, std::vector<s::PlannedRequest>& out) override {
    tickets.push_back(ticket);
    s::PlannedRequest request = s::PlannedRequest::direct(1, 0, now);
    request.grants.push_back({b, now + 1});
    out.push_back(std::move(request));
  }
  [[nodiscard]] std::string name() const override { return "via-box-1"; }

  std::vector<std::uint64_t> tickets;
};

}  // namespace

TEST(Simulator, FarHorizonRequestActivatesAndCompletesOnTime) {
  // Issued 40 rounds ahead with T = 20: the request lives in rounds 40..59,
  // and the session and the cache entry end at round 61, far beyond the
  // first calendar ring. Both engines share the calendars.
  World world(3, 1, 20, 1.0, 1);
  const auto zones = p2pvod::net::Topology::uniform(3, 1);
  for (const p2pvod::net::Topology* topology :
       {static_cast<const p2pvod::net::Topology*>(nullptr), &zones}) {
    FarIssueStrategy strategy(40);
    s::SimulatorOptions options;
    options.topology = topology;
    s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                     options);
    sim.step({{0, 0}});
    for (m::Round t = 1; t < 40; ++t) sim.step({});
    EXPECT_EQ(sim.active_request_count(), 0u);
    EXPECT_EQ(sim.report().requests_issued, 1u);
    sim.step({});  // round 40, the issue round
    EXPECT_EQ(sim.active_request_count(), 1u);
    for (m::Round t = 41; t < 60; ++t) sim.step({});
    EXPECT_EQ(sim.active_request_count(), 0u);  // chunk T-1 at round 59
    EXPECT_EQ(sim.report().chunks_served, 20u);
    EXPECT_FALSE(sim.box_idle(0));  // playing until round 61
    sim.step({});  // round 60
    EXPECT_EQ(sim.report().sessions_completed, 0u);
    sim.step({});  // round 61 = ends
    EXPECT_EQ(sim.report().sessions_completed, 1u);
    EXPECT_EQ(sim.swarms().size(0), 0u);
    EXPECT_TRUE(sim.box_idle(0));
    EXPECT_TRUE(sim.report().success);
  }
}

TEST(Simulator, RejectedPlanLeavesTheSwarmUntouched) {
  // A plan that names an offline requester rejects the demand before the box
  // enters the swarm: no preload ticket is used up and the peak stays 0, so
  // the next joiner is still the swarm's box number 0 (§3).
  World world(4, 1, 6, 1.0, 1);
  ViaBoxOneStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.set_box_online(1, false);
  sim.step({{0, 0}});
  EXPECT_EQ(sim.report().demands_rejected, 1u);
  EXPECT_EQ(sim.report().demands_admitted, 0u);
  EXPECT_EQ(sim.swarms().total_entries(0), 0u);
  EXPECT_EQ(sim.swarms().size(0), 0u);
  EXPECT_EQ(sim.report().peak_swarm, 0u);
  EXPECT_TRUE(sim.box_idle(0));

  sim.set_box_online(1, true);
  sim.step({{0, 0}});
  EXPECT_EQ(sim.report().demands_admitted, 1u);
  EXPECT_EQ(sim.swarms().total_entries(0), 1u);
  EXPECT_EQ(sim.report().peak_swarm, 1u);
  EXPECT_EQ(strategy.tickets, (std::vector<std::uint64_t>{0, 0}));
}

namespace {

/// Requests stripe 0 for the demanding box and also grants its cache entry
/// to a box outside the world.
class WildGrantStrategy final : public s::RequestStrategy {
 public:
  void plan(m::BoxId b, m::VideoId, std::uint64_t, m::Round now,
            s::Simulator& sim, std::vector<s::PlannedRequest>& out) override {
    s::PlannedRequest request = s::PlannedRequest::direct(b, 0, now);
    request.grants.push_back({sim.profile().size() + 3, now});
    out.push_back(std::move(request));
  }
  [[nodiscard]] std::string name() const override { return "wild-grant"; }
};

}  // namespace

TEST(Simulator, GrantToUnknownBoxThrowsOnBothEngines) {
  // The cache checks a grant's box when the grant arrives, so neither engine
  // carries the bad id into its candidates.
  World world(3, 1, 8, 2.0, 1);
  const auto zones = p2pvod::net::Topology::uniform(3, 2);
  for (const p2pvod::net::Topology* topology :
       {static_cast<const p2pvod::net::Topology*>(nullptr), &zones}) {
    WildGrantStrategy strategy;
    s::SimulatorOptions options;
    options.topology = topology;
    s::Simulator sim(world.catalog, world.profile, world.allocation, strategy,
                     options);
    EXPECT_EQ(sim.sparse_active(), topology == nullptr);
    EXPECT_THROW(sim.step({{0, 0}}), std::out_of_range);
  }
}

namespace {

/// Gives every plan a third cache grant: more than a plan can hold.
class ThreeGrantStrategy final : public s::RequestStrategy {
 public:
  void plan(m::BoxId b, m::VideoId, std::uint64_t, m::Round now,
            s::Simulator&, std::vector<s::PlannedRequest>& out) override {
    s::PlannedRequest request = s::PlannedRequest::direct(b, 0, now);
    request.grants.push_back({1, now + 1});
    request.grants.push_back({2, now + 2});
    out.push_back(request);
  }
  [[nodiscard]] std::string name() const override { return "three-grant"; }
};

}  // namespace

TEST(PlannedRequest, ThirdGrantThrows) {
  // A plan fills at most two caches (the requester's and, under the §4
  // relay, the poor box's); a third grant is refused and changes nothing.
  s::PlannedRequest request = s::PlannedRequest::direct(0, 3, 5);
  request.grants.push_back({1, 6});
  EXPECT_THROW(request.grants.push_back({2, 7}), std::length_error);
  EXPECT_THROW((request.grants = {{0, 5}, {1, 6}, {2, 7}}), std::length_error);
  ASSERT_EQ(request.grants.size(), 2u);
  EXPECT_EQ(request.grants[0].box, 0u);
  EXPECT_EQ(request.grants[1].box, 1u);
  EXPECT_EQ(request.grants[1].entry, 6);
  request.grants = {{2, 7}};
  ASSERT_EQ(request.grants.size(), 1u);
  EXPECT_EQ(request.grants[0].box, 2u);

  // Thrown inside the strategy: the simulator admits nothing.
  World world(3, 1, 8, 2.0, 1);
  ThreeGrantStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  EXPECT_THROW(sim.step({{0, 0}}), std::length_error);
  EXPECT_EQ(sim.report().demands_admitted, 0u);
  EXPECT_EQ(sim.report().requests_issued, 0u);
  EXPECT_EQ(sim.swarms().total_entries(0), 0u);
  EXPECT_TRUE(sim.box_idle(0));
}

TEST(Simulator, RunDrivesGeneratorUntilStall) {
  World world(3, 1, 8, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  w::Trace trace;
  trace.add(0, 0, 0);
  trace.add(3, 1, 0);  // staggered: feasible via cache
  w::TraceReplay replay(trace);
  const auto report = sim.run(replay, 20);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.demands_admitted, 2u);
  EXPECT_EQ(report.rounds, 20);
}

TEST(Simulator, ReportSummaryMentionsOutcome) {
  World world(2, 1, 4, 1.0, 1);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});
  EXPECT_NE(sim.report().summary().find("SUCCESS"), std::string::npos);
}

TEST(Simulator, ActiveRequestsTracked) {
  World world(4, 2, 6, 2.0, 2);
  s::PreloadingStrategy strategy;
  s::Simulator sim(world.catalog, world.profile, world.allocation, strategy);
  sim.step({{0, 0}});          // preload active
  EXPECT_EQ(sim.active_request_count(), 1u);
  sim.step({});                 // postponed joins
  EXPECT_EQ(sim.active_request_count(), 2u);
}

// ----------------------------------------------------------------- reset

namespace {

/// What a simulator references, reassignable in place: a reset() after an
/// assignment re-reads it.
struct ResetWorld {
  m::Catalog catalog;
  m::CapacityProfile profile;
  a::Allocation allocation;
};

ResetWorld make_reset_world(std::uint32_t n, std::uint32_t videos,
                            std::uint32_t c, m::Round duration, double u,
                            std::uint32_t k, std::uint64_t seed) {
  m::Catalog catalog(videos, c, duration);
  auto profile = m::CapacityProfile::homogeneous(n, u, 4.0);
  p2pvod::util::Rng rng(seed);
  auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, k, rng);
  return {catalog, std::move(profile), std::move(allocation)};
}

/// Run `rounds` rounds of `feed` on `sim`, stopping at a strict stall. With
/// `churn`, box (7·round + 3) mod n fails in every round ≡ 2 (mod 5) and
/// every box is back online in every round ≡ 0. Returns the kStable obs
/// metrics the run added.
p2pvod::obs::MetricsSnapshot drive(s::Simulator& sim,
                                   w::DemandGenerator& feed, m::Round rounds,
                                   bool churn) {
  auto& registry = p2pvod::obs::MetricsRegistry::global();
  const p2pvod::obs::MetricsSnapshot before = registry.snapshot();
  const std::uint32_t n = sim.profile().size();
  for (m::Round round = 0; round < rounds && !sim.stalled(); ++round) {
    if (churn && round % 5 == 2)
      sim.set_box_online(static_cast<m::BoxId>((7 * round + 3) % n), false);
    if (churn && round % 5 == 0) {
      for (m::BoxId b = 0; b < n; ++b) sim.set_box_online(b, true);
    }
    sim.step(feed.demands(sim));
  }
  return registry.snapshot().delta_since(before).with_stability(
      p2pvod::obs::Stability::kStable);
}

void expect_same_stats(const p2pvod::util::OnlineStats& got,
                       const p2pvod::util::OnlineStats& want,
                       const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.variance(), want.variance());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  EXPECT_EQ(got.sum(), want.sum());
}

/// Every field of two reports is equal: outcome, counts, the start-up delay
/// histogram's buckets and every OnlineStats.
void expect_same_report(const s::RunReport& got, const s::RunReport& want) {
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.first_stall, want.first_stall);
  EXPECT_EQ(got.stall_witness_size, want.stall_witness_size);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.demands_admitted, want.demands_admitted);
  EXPECT_EQ(got.demands_rejected, want.demands_rejected);
  EXPECT_EQ(got.requests_issued, want.requests_issued);
  EXPECT_EQ(got.chunks_served, want.chunks_served);
  EXPECT_EQ(got.chunks_stalled, want.chunks_stalled);
  EXPECT_EQ(got.sessions_completed, want.sessions_completed);
  EXPECT_EQ(got.box_failures, want.box_failures);
  EXPECT_EQ(got.sessions_aborted, want.sessions_aborted);
  EXPECT_EQ(got.startup_delay.buckets(), want.startup_delay.buckets());
  EXPECT_EQ(got.startup_delay.total(), want.startup_delay.total());
  expect_same_stats(got.upload_utilization, want.upload_utilization,
                    "upload_utilization");
  expect_same_stats(got.active_requests, want.active_requests,
                    "active_requests");
  EXPECT_EQ(got.peak_swarm, want.peak_swarm);
  EXPECT_EQ(got.kept_connections, want.kept_connections);
  EXPECT_EQ(got.new_connections, want.new_connections);
  EXPECT_EQ(got.matcher_edges, want.matcher_edges);
  EXPECT_EQ(got.rows_built, want.rows_built);
  EXPECT_EQ(got.row_patches, want.row_patches);
  EXPECT_EQ(got.sparse_full_rebuilds, want.sparse_full_rebuilds);
  EXPECT_EQ(got.expiry_events, want.expiry_events);
  EXPECT_EQ(got.intra_zone_chunks, want.intra_zone_chunks);
  EXPECT_EQ(got.cross_zone_chunks, want.cross_zone_chunks);
  EXPECT_EQ(got.link_cap_rejections, want.link_cap_rejections);
  EXPECT_EQ(got.link_cap_rescues, want.link_cap_rescues);
  EXPECT_EQ(got.zone_cost_total, want.zone_cost_total);
  expect_same_stats(got.cross_zone_fraction, want.cross_zone_fraction,
                    "cross_zone_fraction");
}

/// One reset check: run A on a simulator, optionally reassign what it
/// references, reset() it and run B; then run B on a new simulator.
struct ResetCheck {
  std::function<std::unique_ptr<s::Simulator>()> make_simulator;
  std::function<std::unique_ptr<w::DemandGenerator>()> feed_a;
  std::function<std::unique_ptr<w::DemandGenerator>()> feed_b;
  m::Round rounds = 40;
  bool churn = false;
  std::function<void()> between;  ///< runs after A, before the reset
};

struct ResetOutcome {
  s::RunReport a;      ///< the reused simulator's report before its reset
  s::RunReport fresh;  ///< B's report on the new simulator
};

ResetOutcome expect_reset_matches_fresh(const ResetCheck& check) {
  ResetOutcome outcome;
  const auto reused = check.make_simulator();
  (void)drive(*reused, *check.feed_a(), check.rounds, check.churn);
  outcome.a = reused->report();
  if (check.between) check.between();
  reused->reset();
  EXPECT_EQ(reused->now(), 0);
  EXPECT_FALSE(reused->stalled());
  const auto reused_metrics =
      drive(*reused, *check.feed_b(), check.rounds, check.churn);

  const auto fresh = check.make_simulator();
  const auto fresh_metrics =
      drive(*fresh, *check.feed_b(), check.rounds, check.churn);
  outcome.fresh = fresh->report();
  expect_same_report(reused->report(), outcome.fresh);
  EXPECT_EQ(reused->now(), fresh->now());
  EXPECT_EQ(reused->stalled(), fresh->stalled());
  EXPECT_EQ(reused->total_capacity_slots(), fresh->total_capacity_slots());

  // The obs metrics published from the report count B alone, as on a new
  // simulator.
  EXPECT_EQ(reused_metrics.values.size(), fresh_metrics.values.size());
  for (const auto& [name, value] : fresh_metrics.values) {
    const auto it = reused_metrics.values.find(name);
    if (it == reused_metrics.values.end()) {
      ADD_FAILURE() << name << " missing after the reset";
      continue;
    }
    EXPECT_TRUE(it->second == value)
        << name << ": " << it->second.count << " vs " << value.count;
  }
  return outcome;
}

std::function<std::unique_ptr<w::DemandGenerator>()> zipf_feed(
    const ResetWorld& world, double demand_prob, std::uint64_t seed) {
  return [&world, demand_prob, seed] {
    return std::make_unique<w::ZipfDemand>(world.catalog.video_count(), 0.8,
                                           demand_prob, seed);
  };
}

}  // namespace

TEST(Simulator, ResetMatchesAFreshSimulator) {
  s::PreloadingStrategy preloading;
  {
    SCOPED_TRACE("CSR engine, Zipf demand, a churn drizzle, verified");
    const ResetWorld world = make_reset_world(60, 20, 4, 10, 1.5, 3, 0x5E7);
    s::SimulatorOptions options;
    options.strict = false;
    options.verify_incremental = true;
    ResetCheck check;
    check.make_simulator = [&] {
      return std::make_unique<s::Simulator>(world.catalog, world.profile,
                                            world.allocation, preloading,
                                            options);
    };
    check.feed_a = zipf_feed(world, 0.3, 11);
    check.feed_b = zipf_feed(world, 0.3, 22);
    check.churn = true;
    const ResetOutcome outcome = expect_reset_matches_fresh(check);
    EXPECT_GT(outcome.fresh.sessions_aborted, 0u);
    EXPECT_GT(outcome.fresh.kept_connections, 0u);
  }
  {
    SCOPED_TRACE("strict flash crowds that stall");
    // u = 0.75 at c = 4: three upload slots a box, below the threshold.
    const ResetWorld world = make_reset_world(48, 32, 4, 12, 0.75, 6, 0xE2);
    s::SimulatorOptions options;
    options.strict = true;
    ResetCheck check;
    check.make_simulator = [&] {
      return std::make_unique<s::Simulator>(world.catalog, world.profile,
                                            world.allocation, preloading,
                                            options);
    };
    check.feed_a = [] { return std::make_unique<w::FlashCrowd>(3, 1.3); };
    check.feed_b = [] { return std::make_unique<w::FlashCrowd>(17, 1.3); };
    check.rounds = 36;
    const ResetOutcome outcome = expect_reset_matches_fresh(check);
    EXPECT_FALSE(outcome.a.success);
    EXPECT_FALSE(outcome.fresh.success);
    EXPECT_GT(outcome.fresh.stall_witness_size, 0u);
  }
  {
    SCOPED_TRACE("§4 relays with a capacity override");
    ResetWorld world{m::Catalog(2, 8, 20),
                     m::CapacityProfile::two_class(12, 4, 0.5, 2.0, 4.0, 8.0),
                     a::Allocation(0, 0, {})};
    const auto plan = *p2pvod::hetero::Compensator::plan(world.profile, 1.5,
                                                         8, 1.0);
    p2pvod::util::Rng rng(0x5E1F);
    world.allocation = a::PermutationAllocator().allocate(
        world.catalog, world.profile, 3, rng);
    p2pvod::hetero::RelayStrategy relay(plan);
    s::SimulatorOptions options;
    options.capacity_override = plan.capacity_slots();
    options.strict = false;
    options.verify_incremental = true;
    ResetCheck check;
    check.make_simulator = [&] {
      return std::make_unique<s::Simulator>(world.catalog, world.profile,
                                            world.allocation, relay, options);
    };
    check.feed_a = zipf_feed(world, 0.4, 33);
    check.feed_b = zipf_feed(world, 0.4, 44);
    const ResetOutcome outcome = expect_reset_matches_fresh(check);
    EXPECT_GT(outcome.fresh.sessions_completed, 0u);
  }
  {
    SCOPED_TRACE("zone engine with capped links and churn");
    const ResetWorld world = make_reset_world(24, 8, 4, 8, 1.5, 3, 0x20E);
    auto topology = p2pvod::net::Topology::uniform(24, 4);
    topology.set_uniform_cost(0, 1).set_uniform_link_cap(2);
    s::SimulatorOptions options;
    options.strict = false;
    options.topology = &topology;
    ResetCheck check;
    check.make_simulator = [&] {
      return std::make_unique<s::Simulator>(world.catalog, world.profile,
                                            world.allocation, preloading,
                                            options);
    };
    check.feed_a = zipf_feed(world, 0.5, 55);
    check.feed_b = zipf_feed(world, 0.5, 66);
    check.churn = true;
    const ResetOutcome outcome = expect_reset_matches_fresh(check);
    EXPECT_GT(outcome.fresh.link_cap_rejections, 0u);
    EXPECT_GT(outcome.fresh.cross_zone_chunks, 0u);
  }
  {
    SCOPED_TRACE("catalog, profile and allocation reassigned, n and m new");
    ResetWorld world = make_reset_world(40, 16, 4, 10, 1.5, 3, 0xA);
    s::SimulatorOptions options;
    options.strict = false;
    options.verify_incremental = true;
    ResetCheck check;
    check.make_simulator = [&] {
      return std::make_unique<s::Simulator>(world.catalog, world.profile,
                                            world.allocation, preloading,
                                            options);
    };
    check.feed_a = zipf_feed(world, 0.3, 77);
    check.feed_b = zipf_feed(world, 0.3, 88);
    check.churn = true;
    check.between = [&] {
      world = make_reset_world(56, 24, 4, 8, 1.25, 3, 0xB);
    };
    const ResetOutcome outcome = expect_reset_matches_fresh(check);
    EXPECT_EQ(world.profile.size(), 56u);
    EXPECT_GT(outcome.fresh.demands_admitted, 0u);
  }
}

TEST(Simulator, ResetAfterRecycledSessionsMatchesAFreshSimulator) {
  // Run A admits many times more sessions than are ever live at once, so
  // its session ids are reused over and over and some are free at the
  // reset. Run B on the reset simulator must do what it does on a new one,
  // failures and relay aborts included.
  {
    SCOPED_TRACE("preloading, T = 6 over 150 rounds, churn");
    s::PreloadingStrategy preloading;
    const ResetWorld world = make_reset_world(40, 12, 4, 6, 1.5, 3, 0x1D5);
    s::SimulatorOptions options;
    options.strict = false;
    options.verify_incremental = true;
    ResetCheck check;
    check.make_simulator = [&] {
      return std::make_unique<s::Simulator>(world.catalog, world.profile,
                                            world.allocation, preloading,
                                            options);
    };
    check.feed_a = zipf_feed(world, 0.4, 101);
    check.feed_b = zipf_feed(world, 0.4, 202);
    check.rounds = 150;
    check.churn = true;
    const ResetOutcome outcome = expect_reset_matches_fresh(check);
    EXPECT_GT(outcome.a.demands_admitted, 10u * world.profile.size());
    EXPECT_GT(outcome.fresh.sessions_aborted, 0u);
  }
  {
    SCOPED_TRACE("§4 relays, T = 8 over 120 rounds, churn");
    ResetWorld world{m::Catalog(4, 8, 8),
                     m::CapacityProfile::two_class(12, 4, 0.5, 2.0, 4.0, 8.0),
                     a::Allocation(0, 0, {})};
    const auto plan = *p2pvod::hetero::Compensator::plan(world.profile, 1.5,
                                                         8, 1.0);
    p2pvod::util::Rng rng(0x5E2F);
    world.allocation = a::PermutationAllocator().allocate(
        world.catalog, world.profile, 3, rng);
    p2pvod::hetero::RelayStrategy relay(plan);
    s::SimulatorOptions options;
    options.capacity_override = plan.capacity_slots();
    options.strict = false;
    options.verify_incremental = true;
    ResetCheck check;
    check.make_simulator = [&] {
      return std::make_unique<s::Simulator>(world.catalog, world.profile,
                                            world.allocation, relay, options);
    };
    check.feed_a = zipf_feed(world, 0.4, 303);
    check.feed_b = zipf_feed(world, 0.4, 404);
    check.rounds = 120;
    check.churn = true;
    const ResetOutcome outcome = expect_reset_matches_fresh(check);
    EXPECT_GT(outcome.a.demands_admitted, 5u * world.profile.size());
    EXPECT_GT(outcome.fresh.sessions_aborted, 0u);
  }
}
