// Unit tests for src/model: SystemParams validation and derived quantities,
// CapacityProfile builders and the §4 deficit machinery, Catalog id algebra.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "model/params.hpp"
#include "util/rng.hpp"

namespace m = p2pvod::model;

namespace {
m::SystemParams valid_params() {
  m::SystemParams p;
  p.n = 100;
  p.u = 1.5;
  p.d = 4.0;
  p.m = 100;
  p.c = 4;
  p.k = 4;
  p.mu = 1.2;
  p.video_duration = 20;
  return p;
}
}  // namespace

// ----------------------------------------------------------------- params

TEST(SystemParams, ValidatesGoodConfig) {
  EXPECT_NO_THROW(valid_params().validate());
}

TEST(SystemParams, RejectsZeroN) {
  auto p = valid_params();
  p.n = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(SystemParams, RejectsZeroCatalog) {
  auto p = valid_params();
  p.m = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(SystemParams, RejectsMuBelowOne) {
  auto p = valid_params();
  p.mu = 0.9;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(SystemParams, RejectsOverfullStorage) {
  auto p = valid_params();
  p.k = 100;  // 100*100*4 replicas > 4*100*4 slots
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(SystemParams, RejectsNegativeUpload) {
  auto p = valid_params();
  p.u = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(SystemParams, RejectsNonFiniteValues) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    auto p = valid_params();
    p.u = bad;
    EXPECT_THROW(p.validate(), std::invalid_argument) << "u=" << bad;
    p = valid_params();
    p.d = bad;
    EXPECT_THROW(p.validate(), std::invalid_argument) << "d=" << bad;
    p = valid_params();
    p.mu = bad;
    EXPECT_THROW(p.validate(), std::invalid_argument) << "mu=" << bad;
  }
}

TEST(SystemParams, DerivedCounts) {
  const auto p = valid_params();
  EXPECT_EQ(p.stripe_count(), 400u);
  EXPECT_EQ(p.replica_count(), 1600u);
  EXPECT_EQ(p.slots_per_box(), 16u);
  EXPECT_EQ(p.slot_count(), 1600u);
}

TEST(SystemParams, UploadSlotsFloor) {
  auto p = valid_params();
  p.u = 1.5;
  p.c = 4;
  EXPECT_EQ(p.upload_slots(), 6u);  // ⌊1.5·4⌋
  p.u = 1.24;
  EXPECT_EQ(p.upload_slots(), 4u);  // ⌊4.96⌋
  EXPECT_NEAR(p.u_prime(), 1.0, 1e-12);
}

TEST(SystemParams, UPrimeNeverExceedsU) {
  for (const double u : {0.5, 1.0, 1.1, 1.7, 2.3}) {
    for (const std::uint32_t c : {1u, 2u, 5u, 9u}) {
      auto p = valid_params();
      p.u = u;
      p.c = c;
      EXPECT_LE(p.u_prime(), u + 1e-12);
      EXPECT_GT(p.u_prime(), u - 1.0 / c - 1e-12);  // u' > u - 1/c (§3)
    }
  }
}

TEST(SystemParams, StripeIdRoundTrip) {
  const auto p = valid_params();
  for (m::VideoId v = 0; v < 5; ++v) {
    for (std::uint32_t i = 0; i < p.c; ++i) {
      const auto s = p.stripe_id(v, i);
      const auto ref = p.stripe_ref(s);
      EXPECT_EQ(ref.video, v);
      EXPECT_EQ(ref.index, i);
    }
  }
}

TEST(SystemParams, CatalogFromReplication) {
  EXPECT_EQ(m::SystemParams::catalog_from_replication(100, 4.0, 4), 100u);
  EXPECT_EQ(m::SystemParams::catalog_from_replication(100, 4.0, 7), 57u);
  EXPECT_EQ(m::SystemParams::catalog_from_replication(10, 0.5, 100), 1u);
  EXPECT_THROW((void)m::SystemParams::catalog_from_replication(10, 1.0, 0),
               std::invalid_argument);
}

TEST(SystemParams, MinChunkIsReciprocalC) {
  auto p = valid_params();
  p.c = 8;
  EXPECT_NEAR(p.min_chunk(), 0.125, 1e-12);
}

// ----------------------------------------------------------------- capacity

TEST(Capacity, EmptyMatchesSizeZero) {
  EXPECT_TRUE(m::CapacityProfile().empty());
  const auto prof = m::CapacityProfile::homogeneous(3, 1.5, 4.0);
  EXPECT_FALSE(prof.empty());
  EXPECT_EQ(prof.size(), 3u);
}

TEST(Capacity, HomogeneousProfile) {
  const auto prof = m::CapacityProfile::homogeneous(10, 1.5, 4.0);
  EXPECT_EQ(prof.size(), 10u);
  EXPECT_TRUE(prof.is_homogeneous());
  EXPECT_TRUE(prof.is_proportional());
  EXPECT_NEAR(prof.average_upload(), 1.5, 1e-12);
  EXPECT_NEAR(prof.average_storage(), 4.0, 1e-12);
  EXPECT_NEAR(prof.upload_deficit(1.0), 0.0, 1e-12);
}

TEST(Capacity, TwoClassMix) {
  const auto prof = m::CapacityProfile::two_class(10, 4, 0.5, 2.0, 2.0, 8.0);
  EXPECT_FALSE(prof.is_homogeneous());
  EXPECT_NEAR(prof.average_upload(), (4 * 0.5 + 6 * 2.0) / 10.0, 1e-12);
  EXPECT_EQ(prof.poor_boxes(1.0).size(), 4u);
  EXPECT_EQ(prof.rich_boxes(1.0).size(), 6u);
  EXPECT_NEAR(prof.upload_deficit(1.0), 4 * 0.5, 1e-12);
}

TEST(Capacity, TwoClassRejectsTooManyPoor) {
  EXPECT_THROW(m::CapacityProfile::two_class(5, 6, 0.5, 1, 2, 2),
               std::invalid_argument);
}

TEST(Capacity, ProportionalBuilderKeepsRatio) {
  p2pvod::util::Rng rng(5);
  const auto prof = m::CapacityProfile::proportional(50, 0.5, 3.0, 2.5, rng);
  EXPECT_TRUE(prof.is_proportional());
  for (m::BoxId b = 0; b < prof.size(); ++b) {
    EXPECT_GE(prof.upload(b), 0.5);
    EXPECT_LE(prof.upload(b), 3.0);
    EXPECT_NEAR(prof.storage(b) / prof.upload(b), 2.5, 1e-9);
  }
}

TEST(Capacity, ServerPlusClients) {
  const auto prof = m::CapacityProfile::server_plus_clients(5, 20, 100, 0, 0);
  EXPECT_EQ(prof.upload(0), 20.0);
  EXPECT_EQ(prof.upload(4), 0.0);
  EXPECT_EQ(prof.rich_boxes(1.0).size(), 1u);
  EXPECT_NEAR(prof.upload_deficit(1.0), 4.0, 1e-12);
}

TEST(Capacity, DeficitConditionSection4) {
  // u = 1.55 > 1 + Δ(1)/n = 1 + 0.2 -> satisfied.
  const auto good = m::CapacityProfile::two_class(10, 4, 0.5, 2, 2.25, 8);
  EXPECT_TRUE(good.satisfies_deficit_condition());
  // u = 0.95 < 1 + anything -> violated.
  const auto bad = m::CapacityProfile::homogeneous(10, 0.95, 4);
  EXPECT_FALSE(bad.satisfies_deficit_condition());
}

TEST(Capacity, UploadSlotsFloorPerBox) {
  const auto prof = m::CapacityProfile::homogeneous(3, 1.3, 4.0);
  EXPECT_EQ(prof.upload_slots(0, 10), 13u);
  EXPECT_EQ(prof.upload_slots(0, 3), 3u);  // ⌊3.9⌋
}

TEST(Capacity, StorageSlotsRounds) {
  const auto prof = m::CapacityProfile::homogeneous(3, 1.0, 3.5);
  EXPECT_EQ(prof.storage_slots(0, 2), 7u);
  EXPECT_EQ(prof.total_storage_slots(2), 21u);
}

TEST(Capacity, WithStorageRatio) {
  const auto prof = m::CapacityProfile::two_class(4, 2, 0.5, 9, 2.0, 1);
  const auto balanced = prof.with_storage_ratio(3.0);
  for (m::BoxId b = 0; b < balanced.size(); ++b)
    EXPECT_NEAR(balanced.storage(b), 3.0 * balanced.upload(b), 1e-12);
}

TEST(Capacity, RejectsMismatchedVectors) {
  EXPECT_THROW(m::CapacityProfile({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Capacity, RejectsNegativeValues) {
  EXPECT_THROW(m::CapacityProfile({-1.0}, {1.0}), std::invalid_argument);
}

TEST(Capacity, RejectsNonFiniteValues) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    EXPECT_THROW(m::CapacityProfile({1.0, bad}, {1.0, 1.0}),
                 std::invalid_argument);
    EXPECT_THROW(m::CapacityProfile({1.0, 1.0}, {bad, 1.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)m::CapacityProfile::homogeneous(3, bad, 4.0),
                 std::invalid_argument);
  }
  try {
    (void)m::CapacityProfile::homogeneous(2, 1.5, kNan);
    FAIL() << "NaN storage accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("storage"), std::string::npos);
  }
}

TEST(Capacity, SlotCountsBeyond32BitsThrow) {
  // 1e30 streams of upload (storage) at c = 1 is more slots than a uint32
  // holds; casting it would be undefined.
  const auto prof = m::CapacityProfile::homogeneous(2, 1e30, 1e30);
  EXPECT_THROW((void)prof.upload_slots(0, 1), std::out_of_range);
  EXPECT_THROW((void)prof.storage_slots(1, 1), std::out_of_range);
  EXPECT_THROW((void)prof.total_storage_slots(1), std::out_of_range);
  // The largest count that fits still converts exactly.
  constexpr auto kTop = std::numeric_limits<std::uint32_t>::max();
  const auto edge = m::CapacityProfile::homogeneous(1, kTop, kTop);
  EXPECT_EQ(edge.upload_slots(0, 1), kTop);
  EXPECT_EQ(edge.storage_slots(0, 1), kTop);
  EXPECT_THROW((void)edge.storage_slots(0, 2), std::out_of_range);
}

// ----------------------------------------------------------------- catalog

TEST(Catalog, IdAlgebraRoundTrip) {
  const m::Catalog cat(7, 3, 10);
  EXPECT_EQ(cat.stripe_count(), 21u);
  for (m::VideoId v = 0; v < 7; ++v) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      const auto s = cat.stripe_id(v, i);
      EXPECT_EQ(cat.video_of(s), v);
      EXPECT_EQ(cat.index_of(s), i);
      EXPECT_EQ(cat.stripe_ref(s).video, v);
    }
  }
}

TEST(Catalog, StripesOfVideoAreContiguous) {
  const m::Catalog cat(4, 5, 8);
  const auto stripes = cat.stripes_of(2);
  ASSERT_EQ(stripes.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(stripes[i], 10u + i);
}

TEST(Catalog, BoundsChecking) {
  const m::Catalog cat(2, 2, 5);
  EXPECT_THROW((void)cat.stripe_id(2, 0), std::out_of_range);
  EXPECT_THROW((void)cat.stripe_id(0, 2), std::out_of_range);
  EXPECT_THROW((void)cat.video_of(4), std::out_of_range);
  EXPECT_THROW((void)cat.stripes_of(2), std::out_of_range);
  EXPECT_FALSE(cat.contains(4));
  EXPECT_TRUE(cat.contains(3));
}

TEST(Catalog, RejectsDegenerateShapes) {
  EXPECT_THROW(m::Catalog(0, 1, 5), std::invalid_argument);
  EXPECT_THROW(m::Catalog(1, 0, 5), std::invalid_argument);
  EXPECT_THROW(m::Catalog(1, 1, 0), std::invalid_argument);
}

TEST(Catalog, PositionRange) {
  const m::Catalog cat(1, 1, 10);
  EXPECT_TRUE(cat.position_in_range(0));
  EXPECT_TRUE(cat.position_in_range(9));
  EXPECT_FALSE(cat.position_in_range(10));
  EXPECT_FALSE(cat.position_in_range(-1));
}

TEST(Ids, StripeRefHashAndEquality) {
  const m::StripeRef a{3, 1}, b{3, 1}, c{3, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(std::hash<m::StripeRef>{}(a), std::hash<m::StripeRef>{}(b));
}

TEST(Ids, RequestKeyEquality) {
  const m::RequestKey a{5, 10, 2}, b{5, 10, 2}, c{5, 11, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}
