// Unit tests for src/workload: each generator's contract plus the µ-growth
// limiter's compounding-ceiling semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/permutation.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/adversarial.hpp"
#include "workload/distinct.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/limiter.hpp"
#include "workload/poisson.hpp"
#include "workload/sequential.hpp"
#include "workload/trace.hpp"
#include "workload/zipf.hpp"

namespace w = p2pvod::workload;
namespace s = p2pvod::sim;
namespace m = p2pvod::model;
namespace a = p2pvod::alloc;

namespace {

struct SimWorld {
  SimWorld(std::uint32_t n, std::uint32_t videos, std::uint32_t c,
           m::Round T, double u = 4.0, std::uint32_t k = 2,
           std::uint64_t seed = 99)
      : catalog(videos, c, T),
        profile(m::CapacityProfile::homogeneous(n, u, 8.0)),
        rng(seed),
        allocation(a::PermutationAllocator().allocate(catalog, profile, k,
                                                      rng)),
        simulator(catalog, profile, allocation, strategy) {}

  m::Catalog catalog;
  m::CapacityProfile profile;
  p2pvod::util::Rng rng;
  a::Allocation allocation;
  s::PreloadingStrategy strategy;
  s::Simulator simulator;
};

}  // namespace

// ----------------------------------------------------------------- helpers

TEST(Workload, IdleBoxesMatchesSimulatorState) {
  SimWorld world(6, 4, 2, 8);
  std::vector<m::BoxId> idle = {7};  // replaced, not appended to
  world.simulator.idle_boxes(idle);
  EXPECT_EQ(idle.size(), 6u);
  world.simulator.step({{2, 0}});
  world.simulator.idle_boxes(idle);
  EXPECT_EQ(idle.size(), 5u);
  EXPECT_EQ(std::count(idle.begin(), idle.end(), 2u), 0);
}

// ----------------------------------------------------------------- avoider

TEST(Avoider, PicksVideosTheBoxLacks) {
  SimWorld world(8, 16, 2, 8);
  w::AvoiderAdversary adversary(123);
  const auto demands = adversary.demands(world.simulator);
  EXPECT_FALSE(demands.empty());
  for (const auto& d : demands) {
    EXPECT_FALSE(world.allocation.box_has_video_data(d.box, world.catalog,
                                                     d.video))
        << "box " << d.box << " stores data of video " << d.video;
  }
}

TEST(Avoider, SilentWhenEveryVideoCovered) {
  // k = 32 replicas of each of the 2 stripes fill every one of the 64 slots,
  // so every box necessarily holds data of the single video.
  SimWorld world(4, 1, 2, 8, 4.0, /*k=*/32);
  w::AvoiderAdversary adversary(5, w::AvoiderAdversary::Fallback::kStaySilent);
  EXPECT_TRUE(adversary.demands(world.simulator).empty());
}

TEST(Avoider, FallbackLeastLocalData) {
  SimWorld world(4, 1, 2, 8, 4.0, 32);
  w::AvoiderAdversary adversary(5,
                                w::AvoiderAdversary::Fallback::kLeastLocalData);
  const auto demands = adversary.demands(world.simulator);
  EXPECT_EQ(demands.size(), 4u);  // every idle box demands something
}

TEST(Avoider, RespectsPerRoundCap) {
  SimWorld world(8, 16, 2, 8);
  w::AvoiderAdversary adversary(9, w::AvoiderAdversary::Fallback::kStaySilent,
                                /*max per round=*/3);
  EXPECT_LE(adversary.demands(world.simulator).size(), 3u);
}

namespace {

/// The avoider as it scanned every video of every idle box: one
/// box_has_video_data search per video, and one box_has per stripe for the
/// fallback. The reference the stored-stripe walk must follow draw for draw.
class ReferenceAvoider final : public w::DemandGenerator {
 public:
  using Fallback = w::AvoiderAdversary::Fallback;
  ReferenceAvoider(std::uint64_t seed, Fallback fallback,
                   std::uint32_t max_demands_per_round)
      : rng_(seed), fallback_(fallback), max_per_round_(max_demands_per_round) {}

  std::vector<s::Demand> demands(const s::Simulator& sim) override {
    std::vector<s::Demand> out;
    const m::Catalog& catalog = sim.catalog();
    const a::Allocation& allocation = sim.allocation();
    const std::uint32_t videos = catalog.video_count();
    std::uint32_t emitted = 0;
    std::vector<m::BoxId> idle;
    sim.idle_boxes(idle);
    for (const m::BoxId b : idle) {
      if (max_per_round_ != 0 && emitted >= max_per_round_) break;
      std::vector<m::VideoId> missing;
      for (m::VideoId v = 0; v < videos; ++v) {
        if (!allocation.box_has_video_data(b, catalog, v)) missing.push_back(v);
      }
      if (!missing.empty()) {
        out.push_back({b, missing[rng_.next_below(missing.size())]});
        ++emitted;
        continue;
      }
      if (fallback_ == Fallback::kStaySilent) continue;
      m::VideoId best = 0;
      std::uint32_t best_count = catalog.stripes_per_video() + 1;
      for (m::VideoId v = 0; v < videos; ++v) {
        std::uint32_t count = 0;
        for (std::uint32_t i = 0; i < catalog.stripes_per_video(); ++i) {
          if (allocation.box_has(b, catalog.stripe_id(v, i))) ++count;
        }
        if (count < best_count) {
          best_count = count;
          best = v;
        }
      }
      out.push_back({b, best});
      ++emitted;
    }
    return out;
  }
  [[nodiscard]] std::string name() const override { return "reference"; }

 private:
  p2pvod::util::Rng rng_;
  Fallback fallback_;
  std::uint32_t max_per_round_;
};

}  // namespace

TEST(Avoider, FollowsTheVideoScanDrawForDraw) {
  // Random placements, duplicates included, dense enough that some boxes
  // hold data of every video (the fallback) and sparse enough that others
  // hold none. Each round both generators see the same simulator; the
  // rewrite must emit the same demands and leave its RNG where the scan
  // left it.
  p2pvod::util::Rng world_rng(0xA701DE);
  std::size_t demands = 0;
  std::size_t fallbacks = 0;
  for (int world = 0; world < 80; ++world) {
    const auto n = static_cast<std::uint32_t>(world_rng.next_between(2, 20));
    const auto videos =
        static_cast<std::uint32_t>(world_rng.next_between(1, 10));
    const auto c = static_cast<std::uint32_t>(world_rng.next_between(1, 4));
    const m::Catalog catalog(videos, c, world_rng.next_between(2, 6));
    const double density = world_rng.next_double();
    std::vector<a::Placement> placements;
    for (m::BoxId b = 0; b < n; ++b) {
      for (m::StripeId stripe = 0; stripe < videos * c; ++stripe) {
        if (!world_rng.next_bool(density)) continue;
        placements.push_back({b, stripe});
        if (world_rng.next_bool(0.1)) placements.push_back({b, stripe});
      }
    }
    const a::Allocation allocation(
        n, videos * c, a::group_by_stripe(videos * c, placements));
    const auto profile = m::CapacityProfile::homogeneous(n, 2.0, 8.0);
    for (const auto fallback : {w::AvoiderAdversary::Fallback::kStaySilent,
                                w::AvoiderAdversary::Fallback::kLeastLocalData}) {
      const std::uint64_t seed = world_rng();
      const auto cap = static_cast<std::uint32_t>(world % 3);
      w::AvoiderAdversary avoider(seed, fallback, cap);
      ReferenceAvoider reference(seed, fallback, cap);
      s::PreloadingStrategy strategy;
      s::SimulatorOptions options;
      options.strict = false;
      s::Simulator sim(catalog, profile, allocation, strategy, options);
      for (int round = 0; round < 10; ++round) {
        const auto got = avoider.demands(sim);
        const auto want = reference.demands(sim);
        ASSERT_EQ(got.size(), want.size()) << "world " << world;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].box, want[i].box) << "world " << world;
          ASSERT_EQ(got[i].video, want[i].video) << "world " << world;
          if (allocation.box_has_video_data(got[i].box, catalog, got[i].video))
            ++fallbacks;
        }
        demands += got.size();
        sim.step(got);
      }
    }
  }
  EXPECT_GT(demands, 1000u);
  EXPECT_GT(fallbacks, 50u);
}

// ----------------------------------------------------------------- flash crowd

TEST(FlashCrowd, SeedsOneViewerThenGrows) {
  SimWorld world(32, 4, 2, 16);
  w::FlashCrowd crowd(/*video=*/1, /*mu=*/2.0);
  auto demands = crowd.demands(world.simulator);
  ASSERT_EQ(demands.size(), 2u);  // f=0 -> ceil(1*2) = 2 joiners allowed
  world.simulator.step(demands);
  demands = crowd.demands(world.simulator);
  EXPECT_EQ(demands.size(), 2u);  // f=2 -> up to 4
  world.simulator.step(demands);
  demands = crowd.demands(world.simulator);
  EXPECT_EQ(demands.size(), 4u);  // f=4 -> up to 8
}

TEST(FlashCrowd, HonorsStartRound) {
  SimWorld world(8, 4, 2, 16);
  w::FlashCrowd crowd(0, 2.0, /*start=*/3);
  EXPECT_TRUE(crowd.demands(world.simulator).empty());
  world.simulator.step({});
  world.simulator.step({});
  world.simulator.step({});
  EXPECT_FALSE(crowd.demands(world.simulator).empty());
}

TEST(FlashCrowd, StopsAtMaxJoiners) {
  SimWorld world(32, 4, 2, 16);
  w::FlashCrowd crowd(0, 4.0, 0, /*max joiners=*/5);
  std::uint32_t total = 0;
  for (int t = 0; t < 6; ++t) {
    const auto demands = crowd.demands(world.simulator);
    total += static_cast<std::uint32_t>(demands.size());
    world.simulator.step(demands);
  }
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(crowd.total_joined(), 5u);
}

TEST(FlashCrowd, UnboundedGrowthJoinsEveryIdleBoxAtOnce) {
  // µ = 1e12 asks for more joiners than 32 bits hold (and µ = inf for
  // infinitely many); the count is clamped to the 32 boxes before any cast.
  for (const double mu : {1e12, std::numeric_limits<double>::infinity()}) {
    SimWorld world(32, 4, 2, 16);
    w::FlashCrowd crowd(0, mu);
    EXPECT_EQ(crowd.demands(world.simulator).size(), 32u) << "mu=" << mu;
  }
}

TEST(FlashCrowd, RejectsNanMu) {
  // A NaN µ asks for no joiner after the seed viewer.
  EXPECT_THROW(w::FlashCrowd(0, std::nan("")), std::invalid_argument);
}

// ----------------------------------------------------------------- zipf

TEST(Zipf, SamplerProbabilitiesDecreaseWithRank) {
  w::ZipfSampler sampler(10, 1.0);
  for (std::uint32_t r = 1; r < 10; ++r)
    EXPECT_GT(sampler.probability(r - 1), sampler.probability(r));
}

TEST(Zipf, AlphaZeroIsUniform) {
  w::ZipfSampler sampler(8, 0.0);
  for (std::uint32_t r = 0; r < 8; ++r)
    EXPECT_NEAR(sampler.probability(r), 0.125, 1e-12);
}

TEST(Zipf, SampleFrequenciesTrackProbabilities) {
  w::ZipfSampler sampler(5, 1.2);
  p2pvod::util::Rng rng(7);
  std::array<int, 5> counts{};
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) ++counts[sampler.sample(rng)];
  for (std::uint32_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(counts[r] / static_cast<double>(kSamples),
                sampler.probability(r), 0.02);
  }
}

TEST(Zipf, RejectsDegenerateInputs) {
  EXPECT_THROW(w::ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(w::ZipfSampler(5, -0.1), std::invalid_argument);
}

TEST(Zipf, RejectsNanAlpha) {
  // Every comparison with NaN fails, so the inverse CDF would draw rank 0
  // every time.
  EXPECT_THROW(w::ZipfSampler(5, std::nan("")), std::invalid_argument);
  EXPECT_THROW(w::ZipfDemand(5, std::nan(""), 0.5, 1), std::invalid_argument);
}

TEST(Zipf, RejectsDemandProbabilityOutsideTheUnitInterval) {
  for (const double p : {std::nan(""), -0.01, 1.01,
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(w::ZipfDemand(5, 0.8, p, 1), std::invalid_argument)
        << "p=" << p;
  }
  EXPECT_NO_THROW(w::ZipfDemand(5, 0.8, 0.0, 1));
  EXPECT_NO_THROW(w::ZipfDemand(5, 0.8, 1.0, 1));
}

TEST(Zipf, GeneratorTargetsIdleBoxesOnly) {
  SimWorld world(6, 8, 2, 8);
  world.simulator.step({{0, 0}});
  w::ZipfDemand zipf(8, 0.8, 1.0, 11);
  const auto demands = zipf.demands(world.simulator);
  EXPECT_EQ(demands.size(), 5u);  // all idle boxes demand with prob 1
  for (const auto& d : demands) EXPECT_NE(d.box, 0u);
}

TEST(ZipfDemand, SameDrawsAsAnIdleScan) {
  // The generator must make exactly the draws of the plain loop: a box_idle
  // scan in box order, one Bernoulli draw per idle box and one Zipf draw per
  // demand, on one stream. A churn drizzle takes boxes offline for a few
  // rounds, so the idle set has holes besides the busy boxes.
  constexpr std::uint32_t kBoxes = 500;
  constexpr std::uint32_t kVideos = 100;
  constexpr double kAlpha = 0.8;
  constexpr double kProb = 0.05;
  constexpr std::uint64_t kSeed = 0x5EED;
  const m::Catalog catalog(kVideos, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(kBoxes, 4.0, 8.0);
  p2pvod::util::Rng alloc_rng(3);
  const auto allocation =
      a::PermutationAllocator().allocate(catalog, profile, 2, alloc_rng);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  s::Simulator sim(catalog, profile, allocation, strategy, options);

  w::ZipfDemand zipf(kVideos, kAlpha, kProb, kSeed);
  p2pvod::util::Rng twin(kSeed);
  const w::ZipfSampler sampler(kVideos, kAlpha);
  p2pvod::util::Rng churn(17);
  std::vector<std::pair<m::Round, m::BoxId>> back_online;  // (round, box)
  std::uint64_t offline_seen = 0;
  std::uint64_t busy_seen = 0;
  std::uint64_t demands_seen = 0;
  for (m::Round round = 0; round < 320; ++round) {
    for (std::size_t i = 0; i < back_online.size();) {
      if (back_online[i].first == round) {
        sim.set_box_online(back_online[i].second, true);
        back_online.erase(back_online.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    const auto failed = static_cast<m::BoxId>(churn.next_below(kBoxes));
    if (sim.box_online(failed)) {
      sim.set_box_online(failed, false);
      back_online.emplace_back(round + 4, failed);
    }

    std::vector<s::Demand> want;
    for (m::BoxId b = 0; b < kBoxes; ++b) {
      if (!sim.box_online(b)) ++offline_seen;
      if (!sim.box_idle(b)) {
        if (sim.box_online(b)) ++busy_seen;
        continue;
      }
      if (!twin.next_bool(kProb)) continue;
      want.push_back({b, sampler.sample(twin)});
    }
    const std::vector<s::Demand> got = zipf.demands(sim);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].box, want[i].box) << "round " << round;
      ASSERT_EQ(got[i].video, want[i].video) << "round " << round;
    }
    demands_seen += got.size();
    sim.step(got);
  }
  EXPECT_GT(offline_seen, 300u);
  EXPECT_GT(busy_seen, 10000u);
  EXPECT_GT(demands_seen, 1000u);
}

// ----------------------------------------------------------------- poisson

TEST(Poisson, RateControlsVolume) {
  SimWorld world(64, 8, 2, 8);
  w::PoissonArrivals gen(3.0, 17);
  double total = 0.0;
  for (int t = 0; t < 200; ++t)
    total += static_cast<double>(gen.demands(world.simulator).size());
  EXPECT_NEAR(total / 200.0, 3.0, 0.5);
}

TEST(Poisson, NeverAssignsSameBoxTwicePerRound) {
  SimWorld world(8, 4, 2, 8);
  w::PoissonArrivals gen(6.0, 23);
  for (int t = 0; t < 50; ++t) {
    const auto demands = gen.demands(world.simulator);
    std::set<m::BoxId> boxes;
    for (const auto& d : demands) {
      EXPECT_TRUE(boxes.insert(d.box).second) << "duplicate box in round";
    }
  }
}

// ----------------------------------------------------------------- distinct

TEST(Distinct, FirstRoundPairwiseDistinct) {
  SimWorld world(6, 8, 2, 8);
  w::DistinctVideosSweep sweep(3);
  const auto demands = sweep.demands(world.simulator);
  ASSERT_EQ(demands.size(), 6u);
  std::set<m::VideoId> videos;
  for (const auto& d : demands) EXPECT_TRUE(videos.insert(d.video).second);
}

TEST(Distinct, NoRepeatWithoutFlag) {
  SimWorld world(4, 8, 2, 8);
  w::DistinctVideosSweep sweep(3, /*repeat=*/false);
  (void)sweep.demands(world.simulator);
  EXPECT_TRUE(sweep.demands(world.simulator).empty());
}

TEST(Distinct, RepeatRotatesVideos) {
  SimWorld world(4, 8, 2, 8);
  w::DistinctVideosSweep sweep(3, /*repeat=*/true);
  const auto first = sweep.demands(world.simulator);
  const auto second = sweep.demands(world.simulator);  // boxes still idle
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].box, first[i].box);
    EXPECT_EQ(second[i].video, (first[i].video + 1) % 8);
  }
}

// ----------------------------------------------------------------- sequential

TEST(Sequential, IdleBoxesRejoinNextVideo) {
  SimWorld world(4, 6, 2, 8);
  w::SequentialViewer viewer(3, 1.0);
  const auto first = viewer.demands(world.simulator);
  ASSERT_EQ(first.size(), 4u);
  const auto second = viewer.demands(world.simulator);
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].video, (first[i].video + 1) % 6);
  }
}

TEST(Sequential, JoinProbabilityZeroIsSilent) {
  SimWorld world(4, 6, 2, 8);
  w::SequentialViewer viewer(3, 0.0);
  EXPECT_TRUE(viewer.demands(world.simulator).empty());
}

// ----------------------------------------------------------------- trace

TEST(Trace, SaveLoadRoundTrip) {
  w::Trace trace;
  trace.add(0, 1, 2);
  trace.add(0, 3, 4);
  trace.add(5, 0, 1);
  std::stringstream buffer;
  trace.save(buffer);
  const auto loaded = w::Trace::load(buffer);
  EXPECT_EQ(loaded.entries(), trace.entries());
}

TEST(Trace, LoadSkipsCommentsAndRejectsGarbage) {
  std::stringstream good("# comment\n1 2 3\n");
  EXPECT_EQ(w::Trace::load(good).size(), 1u);
  std::stringstream bad("1 two 3\n");
  EXPECT_THROW((void)w::Trace::load(bad), std::runtime_error);
}

namespace {
std::string load_error(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)w::Trace::load(in);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return {};
}
}  // namespace

TEST(Trace, LoadRejectsTruncatedLineWithLineNumber) {
  const auto what = load_error("0 1 2\n3 4\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  EXPECT_NE(what.find("video"), std::string::npos) << what;  // missing field
}

TEST(Trace, LoadRejectsNonNumericFieldWithLineNumber) {
  const auto what = load_error("# header\n0 1 2\nx 1 2\n");
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  EXPECT_NE(what.find("non-numeric round"), std::string::npos) << what;
}

TEST(Trace, LoadRejectsNegativeAndOversizedIds) {
  EXPECT_NE(load_error("0 -1 2\n").find("box id -1 out of range"),
            std::string::npos);
  EXPECT_NE(load_error("0 1 99999999999\n").find("video id"),
            std::string::npos);
}

TEST(Trace, LoadBlamesTheOverflowingFieldItself) {
  // A value past long long must be blamed on its own token, not on the field
  // after it (naive istream extraction consumes the oversized number and
  // misattributes the error to the next field).
  const auto what = load_error("99999999999999999999999 1 2\n");
  EXPECT_NE(what.find("round field '99999999999999999999999' out of range"),
            std::string::npos)
      << what;
}

TEST(Trace, LoadRejectsTrailingGarbage) {
  const auto what = load_error("0 1 2 3\n");
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  EXPECT_NE(what.find("trailing garbage '3'"), std::string::npos) << what;
}

TEST(Trace, LoadRejectsUnsortedRounds) {
  const auto what = load_error("5 0 0\n3 0 0\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("non-decreasing"), std::string::npos) << what;
}

TEST(Trace, LoadRejectsNegativeRoundWithLineNumber) {
  // A replay starts at round 0: a leading "-1 9 0" used to load, and the
  // replay then emitted none of the demands after it.
  const auto what = load_error("# header\n-1 9 0\n0 1 2\n3 4 5\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("round -1 is negative"), std::string::npos) << what;
}

TEST(Trace, AddRejectsOutOfOrderRounds) {
  w::Trace trace;
  trace.add(5, 0, 0);
  EXPECT_THROW(trace.add(4, 0, 0), std::invalid_argument);
}

TEST(Trace, AddAndConstructorRejectNegativeRounds) {
  w::Trace trace;
  EXPECT_THROW(trace.add(-1, 0, 0), std::invalid_argument);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_THROW(w::Trace({{2, 0, 0}, {-4, 1, 0}}), std::invalid_argument);
}

TEST(Trace, RecorderCapturesReplayReproduces) {
  SimWorld world(6, 8, 2, 8);
  w::DistinctVideosSweep inner(3);
  w::TraceRecorder recorder(inner);
  const auto demands = recorder.demands(world.simulator);
  EXPECT_EQ(recorder.trace().size(), demands.size());

  SimWorld world2(6, 8, 2, 8);
  w::TraceReplay replay(recorder.trace());
  const auto replayed = replay.demands(world2.simulator);
  ASSERT_EQ(replayed.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_EQ(replayed[i].box, demands[i].box);
    EXPECT_EQ(replayed[i].video, demands[i].video);
  }
}

TEST(Trace, ReplayThrowsWhenItFallsBehind) {
  // Asked first at round 2, the replay is past the round-1 entries: it used
  // to emit nothing for the rest of the run.
  w::Trace trace;
  trace.add(1, 0, 1);
  trace.add(1, 2, 0);
  trace.add(3, 1, 1);
  w::TraceReplay replay(trace);
  SimWorld world(4, 4, 2, 8);
  world.simulator.step({});
  world.simulator.step({});
  EXPECT_THROW((void)replay.demands(world.simulator), std::logic_error);
}

TEST(Trace, ReplayEmitsAtRecordedRound) {
  w::Trace trace;
  trace.add(2, 0, 1);
  w::TraceReplay replay(trace);
  SimWorld world(4, 4, 2, 8);
  EXPECT_TRUE(replay.demands(world.simulator).empty());  // round 0
  world.simulator.step({});
  EXPECT_TRUE(replay.demands(world.simulator).empty());  // round 1
  world.simulator.step({});
  EXPECT_EQ(replay.demands(world.simulator).size(), 1u);  // round 2
}

// ----------------------------------------------------------------- limiter

namespace {
/// Generator that floods one video with every idle box, to stress the cap.
class Flood final : public w::DemandGenerator {
 public:
  explicit Flood(m::VideoId video) : video_(video) {}
  std::vector<s::Demand> demands(const s::Simulator& sim) override {
    std::vector<s::Demand> out;
    std::vector<m::BoxId> idle;
    sim.idle_boxes(idle);
    for (const auto b : idle) out.push_back({b, video_});
    return out;
  }
  std::string name() const override { return "flood"; }

 private:
  m::VideoId video_;
};
}  // namespace

TEST(Limiter, CapsJoinsToGrowthBound) {
  SimWorld world(64, 4, 2, 32);
  Flood flood(0);
  w::GrowthLimiter limited(flood, /*mu=*/2.0);
  // Round 0: f=0, cap = ceil(1*2) = 2.
  auto demands = limited.demands(world.simulator);
  EXPECT_EQ(demands.size(), 2u);
  world.simulator.step(demands);
  // Round 1: f=2, cap 4 -> 2 more.
  demands = limited.demands(world.simulator);
  EXPECT_EQ(demands.size(), 2u);
  EXPECT_GT(limited.dropped(), 0u);
}

TEST(Limiter, CompoundingCeilingsDoNotLeak) {
  // µ=1.4 from f=1: one-step ceilings would allow 2 then 3, but the anchored
  // rule caps f(2) at ceil(1*1.4^2) = 2.
  SimWorld world(16, 4, 2, 32);
  Flood flood(0);
  w::GrowthLimiter limited(flood, 1.4);
  auto demands = limited.demands(world.simulator);  // round 0: cap ceil(1.4)=2?
  // f=0 -> anchor log(1); cap at t=1 is ceil(1.4) = 2... the first round cap
  // allows ceil(mu) joins.
  ASSERT_LE(demands.size(), 2u);
  world.simulator.step(demands);
  const auto f1 = world.simulator.swarms().size(0);
  demands = limited.demands(world.simulator);
  world.simulator.step(demands);
  const auto f2 = world.simulator.swarms().size(0);
  // The anchored bound from round 0 (f<=1): f(2) <= ceil(1 * 1.4^2) = 2.
  EXPECT_LE(f2, 2u);
  EXPECT_LE(f1, 2u);
}

namespace {

/// GrowthLimiter's rule with std::log taken per video every round, as the
/// limiter computed it before its table of logs: the oracle for the table.
class LogScanLimiter {
 public:
  LogScanLimiter(w::DemandGenerator& inner, double mu)
      : inner_(inner), log_mu_(std::log(mu)) {}

  std::uint64_t cap(m::VideoId v, m::Round now,
                    std::uint32_t box_count) const {
    if (v >= anchor_.size() ||
        anchor_[v] == std::numeric_limits<double>::infinity())
      return box_count;
    const double log_cap = anchor_[v] + static_cast<double>(now) * log_mu_;
    const double log_n = std::log(static_cast<double>(box_count) + 1.0);
    if (log_cap >= log_n) return box_count;
    return static_cast<std::uint64_t>(std::ceil(std::exp(log_cap) - 1e-9));
  }

  std::vector<s::Demand> demands(const s::Simulator& sim) {
    const std::uint32_t m = sim.catalog().video_count();
    const std::uint32_t n = sim.profile().size();
    if (anchor_.size() < m)
      anchor_.resize(m, std::numeric_limits<double>::infinity());
    const m::Round now = sim.now();
    for (m::VideoId v = 0; v < m; ++v) {
      const double f = std::max<double>(1.0, sim.swarms().size(v));
      anchor_[v] = std::min(anchor_[v],
                            std::log(f) - static_cast<double>(now) * log_mu_);
    }
    std::vector<s::Demand> admitted;
    std::vector<std::uint64_t> joins(m, 0);
    for (const s::Demand& d : inner_.demands(sim)) {
      const std::uint64_t limit = cap(d.video, now + 1, n);
      if (sim.swarms().size(d.video) + joins[d.video] < limit) {
        admitted.push_back(d);
        ++joins[d.video];
      }
    }
    return admitted;
  }

 private:
  w::DemandGenerator& inner_;
  double log_mu_;
  std::vector<double> anchor_;
};

}  // namespace

// The limiter reads log max(f, 1) from a table; over 64 rounds of a limited
// avoider and a limited flash crowd (swarm sizes 0 for most videos, and a
// crowd that grows, fills the boxes and drains), every cap it would apply
// next round and every demand it admits equal a std::log-per-video scan's.
TEST(Limiter, AnchorsMatchThePerVideoLogScan) {
  for (const bool avoider : {true, false}) {
    SCOPED_TRACE(avoider ? "avoider" : "flash crowd");
    SimWorld world(40, 30, 2, 10);
    std::unique_ptr<w::DemandGenerator> inner;
    std::unique_ptr<w::DemandGenerator> twin;
    if (avoider) {
      inner = std::make_unique<w::AvoiderAdversary>(0xA7);
      twin = std::make_unique<w::AvoiderAdversary>(0xA7);
    } else {
      inner = std::make_unique<w::FlashCrowd>(4, 1.3);
      twin = std::make_unique<w::FlashCrowd>(4, 1.3);
    }
    w::GrowthLimiter limited(*inner, 1.3);
    LogScanLimiter reference(*twin, 1.3);
    const std::uint32_t n = world.profile.size();
    bool saw_empty = false;
    bool saw_crowd = false;
    for (m::Round round = 0; round < 64; ++round) {
      const std::vector<s::Demand> got = limited.demands(world.simulator);
      const std::vector<s::Demand> want = reference.demands(world.simulator);
      ASSERT_EQ(got.size(), want.size()) << "round " << round;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].box, want[i].box) << "round " << round;
        EXPECT_EQ(got[i].video, want[i].video) << "round " << round;
      }
      for (m::VideoId v = 0; v < world.catalog.video_count(); ++v) {
        EXPECT_EQ(limited.cap(v, round + 1, n), reference.cap(v, round + 1, n))
            << "video " << v << " round " << round;
        const std::uint32_t f = world.simulator.swarms().size(v);
        saw_empty = saw_empty || f == 0;
        saw_crowd = saw_crowd || f > 1;
      }
      world.simulator.step(got);
    }
    EXPECT_FALSE(world.simulator.stalled());
    EXPECT_TRUE(saw_empty);
    EXPECT_TRUE(saw_crowd);
    EXPECT_GT(limited.dropped(), 0u);
  }
}

TEST(Limiter, NameWrapsInner) {
  Flood flood(0);
  w::GrowthLimiter limited(flood, 2.0);
  EXPECT_EQ(limited.name(), "mu-limited(flood)");
}

TEST(Limiter, RejectsMuBelowOne) {
  Flood flood(0);
  EXPECT_THROW(w::GrowthLimiter(flood, 0.5), std::invalid_argument);
}

TEST(Limiter, RejectsNanMu) {
  // A NaN µ keeps every anchor at +inf, so nothing would be limited.
  Flood flood(0);
  EXPECT_THROW(w::GrowthLimiter(flood, std::nan("")), std::invalid_argument);
}

TEST(Limiter, RejectsInfiniteMu) {
  // From the second round on, cap() would cast exp(-inf + inf) to an
  // integer.
  Flood flood(0);
  EXPECT_THROW(
      w::GrowthLimiter(flood, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}
