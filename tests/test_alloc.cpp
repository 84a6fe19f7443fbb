// Unit tests for src/alloc: the Allocation container invariants, its
// construction from stripe groups against a two-sort reference and against
// the placement-list construction it replaced, and the four context-blind
// placement schemes (§2.1 permutation/independent, round-robin and
// full-replication baselines).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/allocator.hpp"
#include "alloc/full_replication.hpp"
#include "alloc/independent.hpp"
#include "alloc/permutation.hpp"
#include "alloc/round_robin.hpp"
#include "util/rng.hpp"

namespace a = p2pvod::alloc;
namespace m = p2pvod::model;

namespace {
struct Fixture {
  m::Catalog catalog{20, 4, 16};                          // m=20, c=4
  m::CapacityProfile profile{m::CapacityProfile::homogeneous(16, 1.5, 5.0)};
  p2pvod::util::Rng rng{4242};
};

using Placements = std::vector<a::Placement>;

/// The allocation of a placement list, grouped by stripe.
a::Allocation build(std::uint32_t boxes, std::uint32_t stripes,
                    const Placements& placements) {
  return a::Allocation(boxes, stripes, a::group_by_stripe(stripes, placements));
}
}  // namespace

// ----------------------------------------------------------------- container

TEST(Allocation, BuildsInverseMaps) {
  const auto alloc = build(3, 4, {{0, 1}, {1, 1}, {2, 3}, {0, 3}});
  EXPECT_EQ(alloc.holders(1).size(), 2u);
  EXPECT_EQ(alloc.holders(0).size(), 0u);
  EXPECT_TRUE(alloc.box_has(0, 1));
  EXPECT_TRUE(alloc.box_has(0, 3));
  EXPECT_FALSE(alloc.box_has(1, 3));
  alloc.check_integrity();
}

TEST(Allocation, CountsDuplicates) {
  const auto alloc = build(2, 2, {{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(alloc.duplicate_replicas(), 1u);
  EXPECT_EQ(alloc.holders(1).size(), 1u);   // deduplicated
  EXPECT_EQ(alloc.slot_usage(0), 2u);        // but both slots consumed
}

TEST(Allocation, RejectsOutOfRange) {
  EXPECT_THROW((void)build(1, 1, {{2, 0}}), std::out_of_range);
  EXPECT_THROW((void)build(1, 1, {{0, 5}}), std::out_of_range);
  // A bad box is found wherever it stands: alone, first of its group, in a
  // later group, and in a group of more than 8 boxes.
  EXPECT_THROW(a::Allocation(2, 1, {{0, 1}, {7}}), std::out_of_range);
  EXPECT_THROW(a::Allocation(2, 1, {{0, 3}, {9, 0, 1}}), std::out_of_range);
  EXPECT_THROW(a::Allocation(2, 2, {{0, 1, 3}, {0, 1, 5}}), std::out_of_range);
  EXPECT_THROW(
      a::Allocation(2, 1, {{0, 10}, {1, 0, 1, 0, 2, 0, 1, 0, 1, 0}}),
      std::out_of_range);
}

TEST(Allocation, RejectsGroupOffsetsThatDoNotFit) {
  const auto groups = [](std::vector<std::uint32_t> offsets,
                         std::vector<m::BoxId> boxes) {
    return a::StripeGroups{std::move(offsets), std::move(boxes)};
  };
  // One offset too few or too many for the stripe count.
  EXPECT_THROW(a::Allocation(2, 2, groups({0, 1}, {0})),
               std::invalid_argument);
  EXPECT_THROW(a::Allocation(2, 1, groups({0, 0, 1}, {0})),
               std::invalid_argument);
  // Not starting at 0, not ending at the box count, decreasing.
  EXPECT_THROW(a::Allocation(2, 1, groups({1, 1}, {0})),
               std::invalid_argument);
  EXPECT_THROW(a::Allocation(2, 1, groups({0, 2}, {0})),
               std::invalid_argument);
  EXPECT_THROW(a::Allocation(2, 2, groups({0, 2, 1}, {0})),
               std::invalid_argument);
  // Empty groups are fine, and so is no stripe at all.
  EXPECT_EQ(a::Allocation(2, 3, groups({0, 0, 1, 1}, {1})).holders(1).size(),
            1u);
  EXPECT_EQ(a::Allocation(2, 0, {}).stripe_count(), 0u);
}

TEST(Allocation, ReplicationStats) {
  const auto alloc = build(4, 2, {{0, 0}, {1, 0}, {2, 0}, {3, 1}});
  EXPECT_EQ(alloc.min_replication(), 1u);
  EXPECT_EQ(alloc.max_replication(), 3u);
  EXPECT_EQ(alloc.max_slot_usage(), 1u);
  EXPECT_NEAR(alloc.mean_slot_usage(), 1.0, 1e-12);
}

TEST(Allocation, VideoDataQuery) {
  const m::Catalog catalog(3, 2, 8);  // stripes: v0={0,1} v1={2,3} v2={4,5}
  const auto alloc = build(2, 6, {{0, 2}, {1, 5}});
  EXPECT_TRUE(alloc.box_has_video_data(0, catalog, 1));
  EXPECT_FALSE(alloc.box_has_video_data(0, catalog, 0));
  EXPECT_FALSE(alloc.box_has_video_data(0, catalog, 2));
  EXPECT_TRUE(alloc.box_has_video_data(1, catalog, 2));
}

TEST(Allocation, IntegrityDetectsOverCapacity) {
  const auto profile = m::CapacityProfile::homogeneous(1, 1.0, 0.5);
  // 0.5 videos * c=2 -> 1 slot, but two replicas placed.
  const auto alloc = build(1, 2, {{0, 0}, {0, 1}});
  EXPECT_THROW(alloc.check_integrity(&profile, 2), std::logic_error);
}

// ----------------------------------------------------------------- permutation

TEST(Permutation, ExactReplicationAndBalance) {
  Fixture fx;
  const auto alloc =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 4, fx.rng);
  alloc.check_integrity(&fx.profile, fx.catalog.stripes_per_video());
  // k*m*c = 320 replicas into 16*20=320 slots: every box exactly full.
  for (m::BoxId b = 0; b < fx.profile.size(); ++b)
    EXPECT_EQ(alloc.slot_usage(b), 20u);
  // Each stripe has <= k holders (== k minus same-box duplicates).
  for (m::StripeId s = 0; s < fx.catalog.stripe_count(); ++s) {
    EXPECT_LE(alloc.holders(s).size(), 4u);
    EXPECT_GE(alloc.holders(s).size(), 1u);
  }
}

TEST(Permutation, DifferentSeedsDifferentPlacements) {
  Fixture fx;
  p2pvod::util::Rng rng1(1), rng2(2);
  const auto a1 =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 2, rng1);
  const auto a2 =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 2, rng2);
  bool differs = false;
  for (m::StripeId s = 0; s < fx.catalog.stripe_count() && !differs; ++s) {
    const auto h1 = a1.holders(s);
    const auto h2 = a2.holders(s);
    differs = !std::equal(h1.begin(), h1.end(), h2.begin(), h2.end());
  }
  EXPECT_TRUE(differs);
}

TEST(Permutation, SameSeedReproducible) {
  Fixture fx;
  p2pvod::util::Rng rng1(9), rng2(9);
  const auto a1 =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 3, rng1);
  const auto a2 =
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 3, rng2);
  for (m::StripeId s = 0; s < fx.catalog.stripe_count(); ++s) {
    const auto h1 = a1.holders(s);
    const auto h2 = a2.holders(s);
    ASSERT_TRUE(std::equal(h1.begin(), h1.end(), h2.begin(), h2.end()));
  }
}

TEST(Permutation, RejectsOverfull) {
  Fixture fx;
  EXPECT_THROW(
      a::PermutationAllocator().allocate(fx.catalog, fx.profile, 5, fx.rng),
      std::invalid_argument);
}

TEST(Permutation, HeterogeneousStorageWeighting) {
  const m::Catalog catalog(10, 2, 8);
  const auto profile = m::CapacityProfile::two_class(4, 2, 1.0, 1.0, 1.0, 9.0);
  p2pvod::util::Rng rng(31);
  const auto alloc = a::PermutationAllocator().allocate(catalog, profile, 2, rng);
  alloc.check_integrity(&profile, 2);
  // Large boxes (18 slots) must hold more than small ones (2 slots) can.
  EXPECT_LE(alloc.slot_usage(0), 2u);
  EXPECT_LE(alloc.slot_usage(1), 2u);
}

// ----------------------------------------------------------------- independent

TEST(Independent, RedrawPolicyFitsCapacity) {
  Fixture fx;
  const auto alloc = a::IndependentAllocator(a::FullBoxPolicy::kRedraw)
                         .allocate(fx.catalog, fx.profile, 4, fx.rng);
  alloc.check_integrity(&fx.profile, fx.catalog.stripes_per_video());
}

TEST(Independent, LoadsAreUnbalanced) {
  // Unlike permutation, independent placement deviates from the mean; with
  // replicas == slots some box must overflow its mean share.
  const m::Catalog catalog(100, 4, 8);
  const auto profile = m::CapacityProfile::homogeneous(50, 1.5, 16.0);
  p2pvod::util::Rng rng(77);
  const auto alloc = a::IndependentAllocator(a::FullBoxPolicy::kRedraw)
                         .allocate(catalog, profile, 4, rng);
  // mean load = 4*400/50 = 32 of 64 slots; max should exceed the mean.
  EXPECT_GT(alloc.max_slot_usage(), 32u);
}

TEST(Independent, FailPolicyThrowsWhenSlotsTight) {
  // k=2 replicas of 20 stripes exactly fill the 40 slots: independent draws
  // hit a full box long before the last replica (deterministic seed).
  const m::Catalog catalog(10, 2, 8);
  const auto profile = m::CapacityProfile::homogeneous(5, 1.0, 4.0);
  p2pvod::util::Rng rng(13);
  EXPECT_THROW(a::IndependentAllocator(a::FullBoxPolicy::kFail)
                   .allocate(catalog, profile, 2, rng),
               std::runtime_error);
}

TEST(Independent, RejectsOverfull) {
  Fixture fx;
  EXPECT_THROW(a::IndependentAllocator().allocate(fx.catalog, fx.profile, 6,
                                                  fx.rng),
               std::invalid_argument);
}

// ----------------------------------------------------------------- round robin

TEST(RoundRobin, DeterministicPlacement) {
  Fixture fx;
  p2pvod::util::Rng rng1(1), rng2(999);
  const auto a1 =
      a::RoundRobinAllocator().allocate(fx.catalog, fx.profile, 3, rng1);
  const auto a2 =
      a::RoundRobinAllocator().allocate(fx.catalog, fx.profile, 3, rng2);
  for (m::StripeId s = 0; s < fx.catalog.stripe_count(); ++s) {
    const auto h1 = a1.holders(s);
    const auto h2 = a2.holders(s);
    ASSERT_TRUE(std::equal(h1.begin(), h1.end(), h2.begin(), h2.end()));
  }
}

TEST(RoundRobin, ExactlyKDistinctHolders) {
  Fixture fx;
  const auto alloc =
      a::RoundRobinAllocator().allocate(fx.catalog, fx.profile, 3, fx.rng);
  for (m::StripeId s = 0; s < fx.catalog.stripe_count(); ++s)
    EXPECT_EQ(alloc.holders(s).size(), 3u);
  EXPECT_EQ(alloc.duplicate_replicas(), 0u);
}

TEST(RoundRobin, PerfectlyBalancedLoad) {
  Fixture fx;
  const auto alloc =
      a::RoundRobinAllocator().allocate(fx.catalog, fx.profile, 4, fx.rng);
  for (m::BoxId b = 0; b < fx.profile.size(); ++b)
    EXPECT_EQ(alloc.slot_usage(b), 20u);
}

TEST(RoundRobin, RejectsKAboveN) {
  Fixture fx;
  const m::Catalog small(2, 4, 16);
  EXPECT_THROW(
      a::RoundRobinAllocator().allocate(small, fx.profile, 17, fx.rng),
      std::invalid_argument);
}

// ----------------------------------------------------------------- full replication

TEST(FullReplication, EveryBoxHasEveryVideo) {
  const m::Catalog catalog(12, 4, 16);  // m = 12 <= d*c = 20
  Fixture fx;
  const auto alloc = a::FullReplicationAllocator().allocate(
      catalog, fx.profile, /*k ignored*/ 1, fx.rng);
  for (m::BoxId b = 0; b < fx.profile.size(); ++b) {
    for (m::VideoId v = 0; v < catalog.video_count(); ++v)
      EXPECT_TRUE(alloc.box_has_video_data(b, catalog, v));
  }
}

TEST(FullReplication, StripeIndexFollowsBoxClass) {
  const m::Catalog catalog(5, 4, 16);
  Fixture fx;
  const auto alloc =
      a::FullReplicationAllocator().allocate(catalog, fx.profile, 1, fx.rng);
  // Box b stores stripe index b mod c of every video.
  for (m::BoxId b = 0; b < fx.profile.size(); ++b) {
    for (m::VideoId v = 0; v < catalog.video_count(); ++v) {
      EXPECT_TRUE(alloc.box_has(b, catalog.stripe_id(v, b % 4)));
    }
  }
}

TEST(FullReplication, MaxCatalogOfEmptyProfileIsZero) {
  EXPECT_EQ(
      a::FullReplicationAllocator::max_catalog(m::CapacityProfile(), 4), 0u);
}

TEST(FullReplication, MaxCatalogBound) {
  Fixture fx;
  EXPECT_EQ(a::FullReplicationAllocator::max_catalog(fx.profile, 4), 20u);
  const m::Catalog too_big(21, 4, 16);
  EXPECT_THROW(
      a::FullReplicationAllocator().allocate(too_big, fx.profile, 1, fx.rng),
      std::invalid_argument);
}

TEST(FullReplication, HoldersSpreadAcrossClasses) {
  const m::Catalog catalog(3, 4, 16);
  Fixture fx;  // n = 16 boxes, c = 4 -> 4 holders per stripe
  const auto alloc =
      a::FullReplicationAllocator().allocate(catalog, fx.profile, 1, fx.rng);
  for (m::StripeId s = 0; s < catalog.stripe_count(); ++s)
    EXPECT_EQ(alloc.holders(s).size(), 4u);
}

// ----------------------------------------------------------------- factory

TEST(Factory, MakesEveryScheme) {
  for (const auto scheme :
       {a::Scheme::kPermutation, a::Scheme::kIndependent,
        a::Scheme::kRoundRobin, a::Scheme::kFullReplication}) {
    const auto allocator = a::make_allocator(scheme);
    ASSERT_NE(allocator, nullptr);
    EXPECT_EQ(allocator->name(), a::scheme_name(scheme));
  }
}

TEST(Factory, AllSchemesProduceValidAllocations) {
  const m::Catalog catalog(8, 4, 16);
  const auto profile = m::CapacityProfile::homogeneous(8, 1.5, 4.0);
  for (const auto scheme :
       {a::Scheme::kPermutation, a::Scheme::kIndependent,
        a::Scheme::kRoundRobin, a::Scheme::kFullReplication}) {
    p2pvod::util::Rng rng(3);
    const auto alloc =
        a::make_allocator(scheme)->allocate(catalog, profile, 2, rng);
    alloc.check_integrity(&profile, 4);
    for (m::StripeId s = 0; s < catalog.stripe_count(); ++s)
      EXPECT_GE(alloc.holders(s).size(), 1u) << a::scheme_name(scheme);
  }
}

// ------------------------------------------------------ construction oracle

namespace {

// The reference construction: two comparison sorts, by (stripe, box) and by
// (box, stripe), each run deduplicated. Allocation used exactly this before
// it switched to counting passes, so every array must still agree with it.
struct Reference {
  std::vector<std::vector<m::BoxId>> holders;
  std::vector<std::vector<m::StripeId>> stored;
  std::vector<std::uint32_t> slot_usage;
  std::uint64_t duplicates = 0;
};

Reference reference_build(std::uint32_t boxes, std::uint32_t stripes,
                          Placements placements) {
  Reference ref;
  ref.holders.resize(stripes);
  ref.stored.resize(boxes);
  ref.slot_usage.assign(boxes, 0);
  for (const auto& p : placements) ++ref.slot_usage[p.box];

  std::sort(placements.begin(), placements.end(),
            [](const auto& x, const auto& y) {
              return x.stripe != y.stripe ? x.stripe < y.stripe : x.box < y.box;
            });
  m::StripeId prev_stripe = m::kInvalidStripe;
  m::BoxId prev_box = m::kInvalidBox;
  for (const auto& p : placements) {
    if (p.stripe == prev_stripe && p.box == prev_box) {
      ++ref.duplicates;
      continue;
    }
    ref.holders[p.stripe].push_back(p.box);
    prev_stripe = p.stripe;
    prev_box = p.box;
  }

  std::sort(placements.begin(), placements.end(),
            [](const auto& x, const auto& y) {
              return x.box != y.box ? x.box < y.box : x.stripe < y.stripe;
            });
  prev_stripe = m::kInvalidStripe;
  prev_box = m::kInvalidBox;
  for (const auto& p : placements) {
    if (p.stripe == prev_stripe && p.box == prev_box) continue;
    ref.stored[p.box].push_back(p.stripe);
    prev_stripe = p.stripe;
    prev_box = p.box;
  }
  return ref;
}

// The placement-list construction Allocation used before it took stripe
// groups, copied as it stood: a counting sort of the placements by stripe,
// one std::sort per stripe's bucket with its duplicates compacted out, then
// a counting scatter by box in descending stripe order. The groups
// construction must build the same arrays and the same describe().
struct ListBuild {
  std::uint32_t box_count;
  std::uint32_t stripe_count;
  std::uint64_t duplicates = 0;
  std::vector<std::uint32_t> holder_offsets;
  std::vector<m::BoxId> holder_data;
  std::vector<std::uint32_t> stored_offsets;
  std::vector<m::StripeId> stored_data;
  std::vector<std::uint32_t> slot_usage;

  ListBuild(std::uint32_t boxes, std::uint32_t stripes,
            const Placements& placements)
      : box_count(boxes), stripe_count(stripes) {
    slot_usage.assign(box_count, 0);
    holder_offsets.assign(stripe_count + 1, 0);
    for (const a::Placement& p : placements) {
      if (p.box >= box_count)
        throw std::out_of_range("Allocation: box id out of range");
      if (p.stripe >= stripe_count)
        throw std::out_of_range("Allocation: stripe id out of range");
      ++slot_usage[p.box];
      ++holder_offsets[p.stripe];
    }
    std::partial_sum(holder_offsets.begin(), holder_offsets.end(),
                     holder_offsets.begin());
    holder_data.resize(placements.size());
    for (const a::Placement& p : placements)
      holder_data[--holder_offsets[p.stripe]] = p.box;

    std::uint32_t kept = 0;
    for (m::StripeId s = 0; s < stripe_count; ++s) {
      const auto first = holder_data.begin() + holder_offsets[s];
      const auto last = holder_data.begin() + holder_offsets[s + 1];
      std::sort(first, last);
      holder_offsets[s] = kept;
      m::BoxId prev = m::kInvalidBox;
      for (auto it = first; it != last; ++it) {
        if (*it == prev) {
          ++duplicates;
          continue;
        }
        holder_data[kept++] = prev = *it;
      }
    }
    holder_offsets[stripe_count] = kept;
    holder_data.resize(kept);

    stored_offsets.assign(box_count + 1, 0);
    for (const m::BoxId b : holder_data) ++stored_offsets[b];
    std::partial_sum(stored_offsets.begin(), stored_offsets.end(),
                     stored_offsets.begin());
    stored_data.resize(kept);
    for (m::StripeId s = stripe_count; s-- > 0;) {
      for (std::uint32_t i = holder_offsets[s]; i < holder_offsets[s + 1]; ++i)
        stored_data[--stored_offsets[holder_data[i]]] = s;
    }
  }

  [[nodiscard]] std::string describe() const {
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi = 0;
    for (m::StripeId s = 0; s < stripe_count; ++s) {
      lo = std::min(lo, holder_offsets[s + 1] - holder_offsets[s]);
      hi = std::max(hi, holder_offsets[s + 1] - holder_offsets[s]);
    }
    std::ostringstream out;
    out << "allocation boxes=" << box_count << " stripes=" << stripe_count
        << " replicas=" << stored_data.size() << " dup=" << duplicates
        << " repl[min,max]=[" << (stripe_count == 0 ? 0 : lo) << "," << hi
        << "] load[max]="
        << (slot_usage.empty()
                ? 0
                : *std::max_element(slot_usage.begin(), slot_usage.end()));
    return out.str();
  }
};

// Every array of `alloc` against the placement-list build; stops at the
// first stripe or box that differs.
void expect_equals_list_build(const a::Allocation& alloc,
                              const ListBuild& want) {
  ASSERT_EQ(alloc.box_count(), want.box_count);
  ASSERT_EQ(alloc.stripe_count(), want.stripe_count);
  for (m::StripeId s = 0; s < want.stripe_count; ++s) {
    const auto got = alloc.holders(s);
    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                           want.holder_data.begin() + want.holder_offsets[s],
                           want.holder_data.begin() +
                               want.holder_offsets[s + 1]))
        << "holders of stripe " << s;
  }
  for (m::BoxId b = 0; b < want.box_count; ++b) {
    const auto got = alloc.stored(b);
    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                           want.stored_data.begin() + want.stored_offsets[b],
                           want.stored_data.begin() +
                               want.stored_offsets[b + 1]))
        << "stripes stored on box " << b;
    ASSERT_EQ(alloc.slot_usage(b), want.slot_usage[b]) << "box " << b;
  }
  EXPECT_EQ(alloc.duplicate_replicas(), want.duplicates);
  EXPECT_EQ(alloc.describe(), want.describe());
}

// Builds the allocation and checks every array against both references.
void expect_matches_reference(std::uint32_t boxes, std::uint32_t stripes,
                              const Placements& placements) {
  const a::Allocation alloc = build(boxes, stripes, placements);
  expect_equals_list_build(alloc, ListBuild(boxes, stripes, placements));
  const Reference ref = reference_build(boxes, stripes, placements);
  alloc.check_integrity();
  ASSERT_EQ(alloc.box_count(), boxes);
  ASSERT_EQ(alloc.stripe_count(), stripes);
  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t hi = 0;
  for (m::StripeId s = 0; s < stripes; ++s) {
    const auto got = alloc.holders(s);
    const auto& want = ref.holders[s];
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "holders of stripe " << s;
    lo = std::min(lo, static_cast<std::uint32_t>(want.size()));
    hi = std::max(hi, static_cast<std::uint32_t>(want.size()));
  }
  for (m::BoxId b = 0; b < boxes; ++b) {
    const auto got = alloc.stored(b);
    const auto& want = ref.stored[b];
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "stripes stored on box " << b;
    EXPECT_EQ(alloc.slot_usage(b), ref.slot_usage[b]) << "box " << b;
  }
  EXPECT_EQ(alloc.duplicate_replicas(), ref.duplicates);
  EXPECT_EQ(alloc.min_replication(), stripes == 0 ? 0u : lo);
  EXPECT_EQ(alloc.max_replication(), hi);
}

}  // namespace

TEST(AllocationOracle, RandomPlacementSetsMatchTwoSortReference) {
  p2pvod::util::Rng rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    const auto boxes = static_cast<std::uint32_t>(1 + rng.next_below(40));
    const auto stripes = static_cast<std::uint32_t>(1 + rng.next_below(60));
    // Draw from a prefix of the ids so that some stripes stay empty and
    // some boxes hold nothing.
    const auto used_boxes =
        static_cast<std::uint32_t>(1 + rng.next_below(boxes));
    const auto used_stripes =
        static_cast<std::uint32_t>(1 + rng.next_below(stripes));
    const auto count = static_cast<std::uint32_t>(rng.next_below(4 * boxes));
    Placements placements;
    for (std::uint32_t i = 0; i < count; ++i) {
      placements.push_back(
          {static_cast<m::BoxId>(rng.next_below(used_boxes)),
           static_cast<m::StripeId>(rng.next_below(used_stripes))});
    }
    // One (box, stripe) pair three times over, wherever it lands.
    const a::Placement triple{
        static_cast<m::BoxId>(rng.next_below(boxes)),
        static_cast<m::StripeId>(rng.next_below(stripes))};
    placements.insert(placements.end(), 3, triple);
    rng.shuffle(placements);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": " << boxes
                                      << " boxes, " << stripes << " stripes, "
                                      << placements.size() << " placements");
    expect_matches_reference(boxes, stripes, placements);
  }
}

TEST(AllocationOracle, EdgeShapesMatchTwoSortReference) {
  // One box, one stripe: empty, once, and three times.
  expect_matches_reference(1, 1, {});
  expect_matches_reference(1, 1, {{0, 0}});
  expect_matches_reference(1, 1, {{0, 0}, {0, 0}, {0, 0}});
  // Nothing placed at all, and no stripes to place.
  expect_matches_reference(5, 7, {});
  expect_matches_reference(3, 0, {});
  // Unordered input with a pair repeated three times among other holders.
  expect_matches_reference(4, 3,
                           {{3, 2}, {1, 2}, {1, 2}, {0, 0}, {1, 2}, {2, 2}});
  // One stripe held by every box, in shuffled order, next to stripes that
  // only a few boxes hold and stripes nobody holds.
  p2pvod::util::Rng rng(77);
  Placements placements;
  for (m::BoxId b = 0; b < 200; ++b) placements.push_back({b, 5});
  for (int i = 0; i < 50; ++i) {
    placements.push_back({static_cast<m::BoxId>(rng.next_below(200)),
                          static_cast<m::StripeId>(rng.next_below(4))});
  }
  rng.shuffle(placements);
  expect_matches_reference(200, 9, placements);
}

TEST(AllocationOracle, EverySchemeRoundTripsThroughTheReference) {
  struct Size {
    std::uint32_t n, m, c, k;
    double d;
  };
  for (const Size size : {Size{1, 2, 2, 1, 2.0}, Size{8, 8, 4, 2, 4.0},
                          Size{30, 20, 3, 4, 8.0}}) {
    const m::Catalog catalog(size.m, size.c, 16);
    const auto profile =
        m::CapacityProfile::homogeneous(size.n, 1.5, size.d);
    for (const auto scheme :
         {a::Scheme::kPermutation, a::Scheme::kIndependent,
          a::Scheme::kRoundRobin, a::Scheme::kFullReplication,
          a::Scheme::kDemandProportional, a::Scheme::kZoneLocalFirst,
          a::Scheme::kLpGreedy}) {
      SCOPED_TRACE(::testing::Message()
                   << a::scheme_name(scheme) << " n=" << size.n);
      p2pvod::util::Rng rng(size.n + 11);
      const auto alloc =
          a::make_allocator(scheme)->allocate(catalog, profile, size.k, rng);
      alloc.check_integrity(&profile, size.c);
      // Rebuild its placements, shuffled: every stored pair once, plus each
      // box's duplicate replicas as extra copies of stripes it stores.
      Placements placements;
      for (m::BoxId b = 0; b < size.n; ++b) {
        const auto stored = alloc.stored(b);
        for (const m::StripeId s : stored) placements.push_back({b, s});
        for (auto extra = alloc.slot_usage(b) - stored.size(); extra > 0;
             --extra) {
          const auto pick = static_cast<std::size_t>(
              rng.next_below(stored.size()));
          placements.push_back({b, stored[pick]});
        }
      }
      rng.shuffle(placements);
      expect_matches_reference(size.n, catalog.stripe_count(), placements);
      const a::Allocation rebuilt =
          build(size.n, catalog.stripe_count(), placements);
      EXPECT_EQ(rebuilt.duplicate_replicas(), alloc.duplicate_replicas());
      EXPECT_EQ(rebuilt.describe(), alloc.describe());
      for (m::StripeId s = 0; s < catalog.stripe_count(); ++s) {
        const auto x = alloc.holders(s);
        const auto y = rebuilt.holders(s);
        EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()));
      }
    }
  }
}

namespace {

/// Storage of a random heterogeneous profile: 0 to 4 videos a box in
/// quarter steps, so some boxes have no slot at all.
m::CapacityProfile random_profile(p2pvod::util::Rng& rng, std::uint32_t n) {
  std::vector<double> upload(n, 1.0);
  std::vector<double> storage(n);
  for (double& d : storage) d = 0.25 * static_cast<double>(rng.next_below(17));
  return {std::move(upload), std::move(storage)};
}

/// The placements the permutation allocator drew before it emitted stripe
/// groups: the slot-owner array, rng.permutation over the slots, and replica
/// i of the stripe-major order in the owner of slot π(i).
Placements list_permutation_placements(const m::Catalog& catalog,
                                       const m::CapacityProfile& profile,
                                       std::uint32_t k,
                                       p2pvod::util::Rng& rng) {
  const std::uint32_t c = catalog.stripes_per_video();
  std::vector<m::BoxId> slot_owner;
  for (m::BoxId b = 0; b < profile.size(); ++b)
    slot_owner.insert(slot_owner.end(), profile.storage_slots(b, c), b);
  const std::vector<std::uint32_t> perm =
      rng.permutation(static_cast<std::uint32_t>(slot_owner.size()));
  Placements placements;
  std::size_t next = 0;
  for (m::StripeId s = 0; s < catalog.stripe_count(); ++s) {
    for (std::uint32_t r = 0; r < k; ++r)
      placements.push_back({slot_owner[perm[next++]], s});
  }
  return placements;
}

}  // namespace

TEST(AllocationOracle, RandomGroupsMatchThePlacementListBuild) {
  // Groups handed over directly, in random or reversed order, 0 to 12 boxes
  // long (the compare-exchange sort up to 8, std::sort beyond), drawn from a
  // prefix of the boxes so that duplicates are common.
  p2pvod::util::Rng rng(20261019);
  for (int trial = 0; trial < 400; ++trial) {
    const auto boxes = static_cast<std::uint32_t>(1 + rng.next_below(40));
    const auto stripes = static_cast<std::uint32_t>(rng.next_below(50));
    const auto used_boxes =
        static_cast<std::uint32_t>(1 + rng.next_below(boxes));
    a::StripeGroups groups;
    Placements placements;
    for (m::StripeId s = 0; s < stripes; ++s) {
      const auto len = static_cast<std::size_t>(rng.next_below(13));
      const auto first = groups.boxes.size();
      for (std::size_t i = 0; i < len; ++i) {
        const auto b = static_cast<m::BoxId>(rng.next_below(used_boxes));
        groups.boxes.push_back(b);
        placements.push_back({b, s});
      }
      if (rng.next_below(4) == 0) {
        std::sort(groups.boxes.begin() + static_cast<std::ptrdiff_t>(first),
                  groups.boxes.end(), std::greater<>());
      }
      groups.end_group();
    }
    rng.shuffle(placements);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": " << boxes
                                      << " boxes, " << stripes << " stripes, "
                                      << placements.size() << " replicas");
    const a::Allocation alloc(boxes, stripes, std::move(groups));
    alloc.check_integrity();
    expect_equals_list_build(alloc, ListBuild(boxes, stripes, placements));
  }
}

TEST(AllocationOracle, PermutationMatchesThePlacementListBuild) {
  // Heterogeneous storage, boxes without a slot, k from 1 to 12, and
  // catalogs that leave slots empty: the same draws must store the same
  // replicas as the placement-list allocator, and leave the generator in
  // the same state.
  p2pvod::util::Rng rng(0xA110C);
  int built = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.next_below(300));
    const auto c = static_cast<std::uint32_t>(1 + rng.next_below(4));
    const auto k = static_cast<std::uint32_t>(1 + rng.next_below(12));
    const m::CapacityProfile profile = random_profile(rng, n);
    const std::uint64_t videos = profile.total_storage_slots(c) / (k * c);
    if (videos == 0) continue;
    const auto m_videos =
        static_cast<std::uint32_t>(1 + rng.next_below(videos));
    const m::Catalog catalog(m_videos, c, 12);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": n=" << n << " c=" << c
                 << " k=" << k << " m=" << m_videos << " slots="
                 << profile.total_storage_slots(c));
    const std::uint64_t seed = rng();
    p2pvod::util::Rng draws(seed);
    p2pvod::util::Rng list_draws(seed);
    const auto alloc =
        a::PermutationAllocator().allocate(catalog, profile, k, draws);
    alloc.check_integrity(&profile, c);
    expect_equals_list_build(
        alloc, ListBuild(n, catalog.stripe_count(),
                         list_permutation_placements(catalog, profile, k,
                                                     list_draws)));
    EXPECT_EQ(draws(), list_draws());
    ++built;
  }
  EXPECT_GT(built, 100);
}

TEST(AllocationOracle, FullReplicationMatchesThePlacementListBuild) {
  // Box-major placements through group_by_stripe: groups of about n/c
  // boxes, past the compare-exchange sort's 8.
  p2pvod::util::Rng rng(611);
  for (const std::uint32_t n : {1u, 7u, 40u, 130u}) {
    for (const std::uint32_t c : {1u, 3u, 4u}) {
      std::vector<double> storage(n);
      for (double& d : storage)
        d = 2.0 + 0.5 * static_cast<double>(rng.next_below(5));
      const m::CapacityProfile profile(std::vector<double>(n, 1.0), storage);
      const auto videos = a::FullReplicationAllocator::max_catalog(profile, c);
      const m::Catalog catalog(videos, c, 12);
      SCOPED_TRACE(::testing::Message() << "n=" << n << " c=" << c);
      Placements placements;
      for (m::BoxId b = 0; b < n; ++b) {
        for (m::VideoId v = 0; v < videos; ++v)
          placements.push_back({b, catalog.stripe_id(v, b % c)});
      }
      const auto alloc =
          a::FullReplicationAllocator().allocate(catalog, profile, 1, rng);
      alloc.check_integrity(&profile, c);
      expect_equals_list_build(
          alloc, ListBuild(n, catalog.stripe_count(), placements));
    }
  }
}
