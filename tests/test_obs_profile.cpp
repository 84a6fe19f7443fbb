// Tests for the PR 9 profiling & perf-trajectory layer: call-tree
// aggregation from trace events (nesting, clock-tie tie-breaks, self/total
// accounting, log2-bucket quantiles, collapsed-stack and JSON exports),
// per-round metric time-series exactness under parallel increments, the
// WallStats median+MAD reduction, the statistical wall-time gate
// (2x slowdown flagged, MAD-level noise passes), BENCH-document reduction,
// and the sparse-path kStable counters' thread-count independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trajectory.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sink.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace obs = p2pvod::obs;
namespace sc = p2pvod::scenario;
namespace u = p2pvod::util;

namespace {

/// Sets an environment variable for the test's lifetime, restoring the
/// previous value (or unsetting) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str()); old != nullptr) {
      old_ = old;
    }
    setenv(name_.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

/// Hand-built event set with known nesting (TraceEvent is
/// {name, phase, ts_ns, dur_ns, tid}):
///
///   tid 0: root[0,100) > a[10,40) > leaf[12,17), a[45,65), b[70,80)
///   tid 1: other[0,50)
///
/// plus an instant that aggregation must ignore. Shuffled on purpose:
/// from_events must not depend on input order.
std::vector<obs::TraceEvent> nested_events() {
  return {
      {"a", 'X', 45, 20, 0},     {"leaf", 'X', 12, 5, 0},
      {"ignored", 'i', 5, 0, 0}, {"other", 'X', 0, 50, 1},
      {"b", 'X', 70, 10, 0},     {"root", 'X', 0, 100, 0},
      {"a", 'X', 10, 30, 0},
  };
}

}  // namespace

// --- call-tree aggregation --------------------------------------------------

TEST(ObsProfile, BuildsCallTreeWithCountsTotalsAndSelfTimes) {
  const obs::Profile profile = obs::Profile::from_events(nested_events());
  ASSERT_EQ(profile.threads().size(), 2u);
  EXPECT_EQ(profile.span_count(), 6u);  // the instant is not a span
  EXPECT_FALSE(profile.empty());

  const obs::ThreadProfile& t0 = profile.threads()[0];
  EXPECT_EQ(t0.tid, 0u);
  ASSERT_EQ(t0.root.children.size(), 1u);
  const obs::ProfileNode& root = t0.root.children.at("root");
  EXPECT_EQ(root.count, 1u);
  EXPECT_EQ(root.total_ns, 100u);
  EXPECT_EQ(root.self_ns, 40u);  // 100 - (30 + 20 + 10)
  ASSERT_EQ(root.children.size(), 2u);

  const obs::ProfileNode& a = root.children.at("a");
  EXPECT_EQ(a.count, 2u);        // both a-spans land on the same path
  EXPECT_EQ(a.total_ns, 50u);    // 30 + 20
  EXPECT_EQ(a.self_ns, 45u);     // 50 - leaf's 5
  ASSERT_EQ(a.children.size(), 1u);
  const obs::ProfileNode& leaf = a.children.at("leaf");
  EXPECT_EQ(leaf.count, 1u);
  EXPECT_EQ(leaf.total_ns, 5u);
  EXPECT_EQ(leaf.self_ns, 5u);

  const obs::ProfileNode& b = root.children.at("b");
  EXPECT_EQ(b.total_ns, 10u);
  EXPECT_EQ(b.self_ns, 10u);

  const obs::ThreadProfile& t1 = profile.threads()[1];
  EXPECT_EQ(t1.tid, 1u);
  const obs::ProfileNode& other = t1.root.children.at("other");
  EXPECT_EQ(other.total_ns, 50u);
  EXPECT_EQ(other.self_ns, 50u);
}

TEST(ObsProfile, TimestampTiesNestTheShorterSpanInsideTheLonger) {
  // Coarse clocks can stamp an outer span and its first child with the same
  // start; the duration tie-break must keep outer as the parent.
  const std::vector<obs::TraceEvent> events = {
      {"inner", 'X', 0, 50, 0},
      {"outer", 'X', 0, 100, 0},
  };
  const obs::Profile profile = obs::Profile::from_events(events);
  ASSERT_EQ(profile.threads().size(), 1u);
  const obs::ProfileNode& top = profile.threads()[0].root;
  ASSERT_EQ(top.children.size(), 1u);
  const obs::ProfileNode& outer = top.children.at("outer");
  ASSERT_EQ(outer.children.count("inner"), 1u);
  EXPECT_EQ(outer.self_ns, 50u);
  EXPECT_EQ(outer.children.at("inner").self_ns, 50u);
}

TEST(ObsProfile, EmptyAndInstantOnlyInputsProduceEmptyProfiles) {
  EXPECT_TRUE(obs::Profile::from_events({}).empty());
  const std::vector<obs::TraceEvent> instants = {{"tick", 'i', 1, 0, 0}};
  const obs::Profile profile = obs::Profile::from_events(instants);
  EXPECT_TRUE(profile.empty());
  EXPECT_EQ(profile.span_count(), 0u);
  EXPECT_TRUE(profile.to_collapsed().empty());
}

TEST(ObsProfile, QuantilesReportLog2BucketUpperBounds) {
  // Durations 8,8,8 fall in bucket bit_width(8)=4, upper bound 15; the 1000
  // outlier lands in bucket 10, upper bound 1023. Non-overlapping spans.
  const std::vector<obs::TraceEvent> events = {
      {"q", 'X', 0, 8, 0},
      {"q", 'X', 100, 8, 0},
      {"q", 'X', 200, 8, 0},
      {"q", 'X', 300, 1000, 0},
      {"z", 'X', 2000, 0, 0},
  };
  const obs::Profile profile = obs::Profile::from_events(events);
  const obs::ProfileNode& q = profile.threads()[0].root.children.at("q");
  EXPECT_EQ(q.count, 4u);
  EXPECT_EQ(q.quantile_ns(0.50), 15u);   // rank 2 of 4 -> bucket 4
  EXPECT_EQ(q.quantile_ns(0.75), 15u);   // rank 3 of 4 -> still bucket 4
  EXPECT_EQ(q.quantile_ns(0.99), 1023u); // rank 4 of 4 -> outlier bucket
  const obs::ProfileNode& z = profile.threads()[0].root.children.at("z");
  EXPECT_EQ(z.quantile_ns(0.50), 0u);    // zero-duration bucket
  EXPECT_EQ(obs::ProfileNode{}.quantile_ns(0.5), 0u);  // no spans at all
}

TEST(ObsProfile, MergedTreeSumsThreadsByPath) {
  const obs::Profile profile = obs::Profile::from_events(nested_events());
  const obs::ProfileNode merged = profile.merged();
  ASSERT_EQ(merged.children.size(), 2u);  // "other" and "root"
  EXPECT_EQ(merged.children.at("root").total_ns, 100u);
  EXPECT_EQ(merged.children.at("other").total_ns, 50u);

  // Merging a duplicated event set doubles every aggregate on the same path.
  std::vector<obs::TraceEvent> doubled = nested_events();
  for (obs::TraceEvent event : nested_events()) {
    event.tid += 2;  // same shapes on two more threads
    doubled.push_back(event);
  }
  const obs::ProfileNode merged2 =
      obs::Profile::from_events(doubled).merged();
  EXPECT_EQ(merged2.children.at("root").total_ns, 200u);
  EXPECT_EQ(merged2.children.at("root").children.at("a").count, 4u);
  EXPECT_EQ(merged2.children.at("root").children.at("a").self_ns, 90u);
}

TEST(ObsProfile, CollapsedStacksCarrySelfTimesAndFullPaths) {
  const obs::Profile profile = obs::Profile::from_events(nested_events());
  const std::string collapsed = profile.to_collapsed();
  // Pre-order over name-sorted children, "path;to;node <self_ns>" per line.
  EXPECT_EQ(collapsed,
            "other 50\n"
            "root 40\n"
            "root;a 45\n"
            "root;a;leaf 5\n"
            "root;b 10\n");
  // Invariant behind flamegraphs: self times over all lines sum to the
  // total inclusive time of the top-level spans.
  std::uint64_t self_sum = 0;
  std::istringstream lines(collapsed);
  std::string path;
  std::uint64_t self = 0;
  while (lines >> path >> self) self_sum += self;
  EXPECT_EQ(self_sum, 150u);
}

TEST(ObsProfile, JsonDocumentCarriesSchemaAndPerThreadTrees) {
  const obs::Profile profile = obs::Profile::from_events(nested_events());
  const u::json::Value doc = profile.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "p2pvod-profile-v1");
  EXPECT_EQ(doc.at("unit").as_string(), "ns");
  EXPECT_DOUBLE_EQ(doc.at("span_count").as_number(), 6.0);
  const auto& threads = doc.at("threads").as_array();
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_DOUBLE_EQ(threads[0].at("tid").as_number(), 0.0);
  const auto& spans = threads[0].at("spans").as_array();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("name").as_string(), "root");
  EXPECT_DOUBLE_EQ(spans[0].at("total_ns").as_number(), 100.0);
  EXPECT_DOUBLE_EQ(spans[0].at("self_ns").as_number(), 40.0);
  EXPECT_TRUE(spans[0].at("p50_ns").is_number());
  EXPECT_TRUE(spans[0].at("p95_ns").is_number());
  EXPECT_TRUE(spans[0].at("p99_ns").is_number());
  const auto& children = spans[0].at("children").as_array();
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0].at("name").as_string(), "a");
  EXPECT_EQ(children[1].at("name").as_string(), "b");
}

TEST(ObsProfile, WriteFilesEmitsParseableJsonAndMatchingCollapsed) {
  const std::string dir = testing::TempDir() + "/obs_profile_files/deeper";
  std::filesystem::remove_all(testing::TempDir() + "/obs_profile_files");
  const obs::Profile profile = obs::Profile::from_events(nested_events());
  profile.write_files(dir, "test");
  const u::json::Value doc = u::json::parse_file(dir + "/PROFILE_test.json");
  EXPECT_EQ(doc.at("schema").as_string(), "p2pvod-profile-v1");
  std::ifstream in(dir + "/PROFILE_test.collapsed", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), profile.to_collapsed());
}

// --- per-round time-series --------------------------------------------------

TEST(ObsRoundSeries, InactiveTickIsANoopAndStopReturnsEmpty) {
  ASSERT_FALSE(obs::RoundSeries::active());
  obs::RoundSeries::tick(1);
  EXPECT_TRUE(obs::RoundSeries::stop().empty());
}

namespace {

/// Column of `data` by name; empty (with a test failure) when absent.
std::vector<std::uint64_t> series_column(const obs::RoundSeriesData& data,
                                         const std::string& name) {
  const auto it = std::find(data.columns.begin(), data.columns.end(), name);
  if (it == data.columns.end()) {
    ADD_FAILURE() << "series column missing: " << name;
    return {};
  }
  return data.values[static_cast<std::size_t>(it - data.columns.begin())];
}

}  // namespace

TEST(ObsRoundSeries, PerRoundDeltasAreExactUnderParallelIncrements) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& a = registry.counter("series_test/a");
  obs::Counter& b = registry.counter("series_test/b");
  a.add(3);  // pre-start increments must not leak into the first row
  obs::RoundSeries::start();
  ASSERT_TRUE(obs::RoundSeries::active());
  obs::RoundSeries::start();  // start while active is a no-op

  u::ThreadPool pool(8);
  constexpr std::size_t kAdds = 100000;
  u::parallel_for(
      0, kAdds, [&](std::size_t) { a.add(); }, &pool);
  b.add(500);
  obs::RoundSeries::tick(1);
  a.add(7);
  obs::RoundSeries::tick(2);

  const obs::RoundSeriesData data = obs::RoundSeries::stop();
  EXPECT_FALSE(obs::RoundSeries::active());
  ASSERT_EQ(data.rounds, (std::vector<std::uint64_t>{1, 2}));
  ASSERT_EQ(data.columns.size(), data.values.size());
  EXPECT_TRUE(std::is_sorted(data.columns.begin(), data.columns.end()));
  // Exactly-once accounting: the sharded counter's parallel adds all land in
  // the round whose tick closed them.
  EXPECT_EQ(series_column(data, "series_test/a"),
            (std::vector<std::uint64_t>{kAdds, 7}));
  EXPECT_EQ(series_column(data, "series_test/b"),
            (std::vector<std::uint64_t>{500, 0}));
}

TEST(ObsRoundSeries, LateRegisteredCountersAreZeroBackfilled) {
  obs::RoundSeries::start();
  obs::RoundSeries::tick(1);
  obs::Counter& late =
      obs::MetricsRegistry::global().counter("series_test/late");
  late.add(2);
  obs::RoundSeries::tick(2);
  const obs::RoundSeriesData data = obs::RoundSeries::stop();
  ASSERT_EQ(data.rounds.size(), 2u);
  EXPECT_EQ(series_column(data, "series_test/late"),
            (std::vector<std::uint64_t>{0, 2}));
}

TEST(ObsRoundSeries, CsvAndJsonExportsAreColumnar) {
  obs::RoundSeriesData data;
  data.rounds = {1, 2};
  data.columns = {"a", "b"};
  data.values = {{3, 4}, {5, 6}};
  EXPECT_EQ(data.to_csv(), "round,a,b\n1,3,5\n2,4,6\n");
  const u::json::Value doc = data.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "p2pvod-series-v1");
  ASSERT_EQ(doc.at("rounds").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("series").at("a").as_array()[1].as_number(), 4.0);
  EXPECT_DOUBLE_EQ(doc.at("series").at("b").as_array()[0].as_number(), 5.0);
}

// --- wall-time statistics and the regression gate ---------------------------

TEST(ObsTrajectory, WallStatsReduceIsRobustToOutliers) {
  const obs::WallStats stats = obs::WallStats::reduce({100.0, 1.0, 2.0});
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_DOUBLE_EQ(stats.median, 2.0);
  EXPECT_DOUBLE_EQ(stats.mad, 1.0);  // |deviations| = {98, 1, 0} -> median 1
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
  EXPECT_NEAR(stats.mean, 103.0 / 3.0, 1e-12);

  const obs::WallStats empty = obs::WallStats::reduce({});
  EXPECT_EQ(empty.runs, 0u);
  EXPECT_DOUBLE_EQ(empty.median, 0.0);

  // Even-count median is the midpoint of the middle pair.
  EXPECT_DOUBLE_EQ(obs::WallStats::reduce({1.0, 2.0, 3.0, 4.0}).median, 2.5);
}

TEST(ObsTrajectory, WallStatsJsonRoundTrips) {
  const obs::WallStats stats = obs::WallStats::reduce({0.5, 0.6, 0.7});
  const obs::WallStats back = obs::WallStats::from_json(stats.to_json());
  EXPECT_EQ(back.runs, stats.runs);
  EXPECT_DOUBLE_EQ(back.median, stats.median);
  EXPECT_DOUBLE_EQ(back.mad, stats.mad);
  EXPECT_DOUBLE_EQ(back.mean, stats.mean);
  EXPECT_DOUBLE_EQ(back.stddev, stats.stddev);
  EXPECT_DOUBLE_EQ(back.min, stats.min);
  EXPECT_DOUBLE_EQ(back.max, stats.max);
}

namespace {

obs::TrajectoryPoint make_point(const std::string& label, double scale,
                                std::vector<double> totals,
                                std::vector<double> sweep_stage) {
  obs::TrajectoryPoint point;
  point.label = label;
  point.scale = scale;
  obs::ScenarioPerf perf;
  perf.total = obs::WallStats::reduce(std::move(totals));
  perf.stages.emplace("sweep", obs::WallStats::reduce(std::move(sweep_stage)));
  point.scenarios.emplace("threshold", std::move(perf));
  return point;
}

}  // namespace

TEST(ObsTrajectory, JsonRoundTripsAndReferencePicksMostRecentSameScale) {
  obs::Trajectory trajectory;
  trajectory.points.push_back(
      make_point("a", 0.25, {0.5, 0.5, 0.5}, {0.2, 0.2, 0.2}));
  trajectory.points.push_back(
      make_point("b", 1.0, {2.0, 2.0, 2.0}, {1.0, 1.0, 1.0}));
  trajectory.points.push_back(
      make_point("c", 0.25, {0.4, 0.4, 0.4}, {0.2, 0.2, 0.2}));

  const obs::Trajectory back =
      obs::Trajectory::from_json(trajectory.to_json());
  ASSERT_EQ(back.points.size(), 3u);
  EXPECT_EQ(back.points[1].label, "b");
  EXPECT_DOUBLE_EQ(back.points[1].scale, 1.0);
  EXPECT_DOUBLE_EQ(
      back.points[2].scenarios.at("threshold").total.median, 0.4);
  EXPECT_DOUBLE_EQ(
      back.points[0].scenarios.at("threshold").stages.at("sweep").median,
      0.2);

  ASSERT_NE(back.reference(0.25), nullptr);
  EXPECT_EQ(back.reference(0.25)->label, "c");  // most recent at that scale
  ASSERT_NE(back.reference(1.0), nullptr);
  EXPECT_EQ(back.reference(1.0)->label, "b");
  EXPECT_EQ(back.reference(0.5), nullptr);

  EXPECT_THROW((void)obs::Trajectory::from_json(
                   u::json::parse(R"({"schema":"wrong"})")),
               std::runtime_error);
}

TEST(ObsTrajectory, GateFlagsTwoXSlowdownAndPassesNoise) {
  obs::Trajectory history;
  history.points.push_back(
      make_point("seed", 0.25, {0.5, 0.5, 0.5}, {0.2, 0.2, 0.2}));

  // 2x total slowdown: limit = 0.5 + max(0.05, 0.25*0.5, 0) = 0.625 < 1.0.
  const obs::TrajectoryPoint slow =
      make_point("slow", 0.25, {1.0, 1.0, 1.0}, {0.2, 0.2, 0.2});
  const std::vector<obs::GateFinding> flagged =
      obs::gate_compare(slow, history);
  ASSERT_EQ(flagged.size(), 2u);  // total first, then the sweep stage
  EXPECT_EQ(flagged[0].stage, "");
  EXPECT_TRUE(flagged[0].regression);
  EXPECT_DOUBLE_EQ(flagged[0].reference_median, 0.5);
  EXPECT_DOUBLE_EQ(flagged[0].candidate_median, 1.0);
  EXPECT_DOUBLE_EQ(flagged[0].limit, 0.625);
  EXPECT_EQ(flagged[1].stage, "sweep");
  EXPECT_FALSE(flagged[1].regression);

  // Noise within the relative band passes.
  const obs::TrajectoryPoint noisy =
      make_point("noisy", 0.25, {0.55, 0.55, 0.55}, {0.21, 0.21, 0.21});
  for (const obs::GateFinding& finding : obs::gate_compare(noisy, history)) {
    EXPECT_FALSE(finding.regression) << finding.scenario << ":"
                                     << finding.stage;
  }

  // A 2x slowdown in one *stage* is flagged even when the total stays put.
  const obs::TrajectoryPoint stage_slow =
      make_point("stage", 0.25, {0.5, 0.5, 0.5}, {0.4, 0.4, 0.4});
  const std::vector<obs::GateFinding> stage_findings =
      obs::gate_compare(stage_slow, history);
  ASSERT_EQ(stage_findings.size(), 2u);
  EXPECT_FALSE(stage_findings[0].regression);
  EXPECT_TRUE(stage_findings[1].regression);
  EXPECT_EQ(stage_findings[1].stage, "sweep");
}

TEST(ObsTrajectory, GateBandWidensWithObservedMad) {
  obs::Trajectory history;
  history.points.push_back(
      make_point("seed", 0.25, {0.50, 0.52, 0.48}, {0.2, 0.2, 0.2}));
  // mad(ref)=0.02, mad(cand)=0.02: band = max(0.05, 0.125, 4*0.04)=0.16, so
  // a 0.6 median passes where a zero-MAD gate at rel_tol=0.1 would flag it.
  const obs::TrajectoryPoint cand =
      make_point("cand", 0.25, {0.60, 0.62, 0.58}, {0.2, 0.2, 0.2});
  obs::GateOptions tight;
  tight.rel_tol = 0.1;
  tight.abs_slack = 0.01;
  const std::vector<obs::GateFinding> findings =
      obs::gate_compare(cand, history, tight);
  ASSERT_FALSE(findings.empty());
  EXPECT_FALSE(findings[0].regression);
  EXPECT_DOUBLE_EQ(findings[0].limit, 0.5 + 4.0 * 0.04);
}

TEST(ObsTrajectory, GateSkipsMismatchedScalesAndNewScenarios) {
  obs::Trajectory history;
  history.points.push_back(
      make_point("seed", 0.25, {0.5, 0.5, 0.5}, {0.2, 0.2, 0.2}));

  // Candidate at a never-gated scale passes vacuously.
  const obs::TrajectoryPoint full_scale =
      make_point("full", 1.0, {9.0, 9.0, 9.0}, {5.0, 5.0, 5.0});
  EXPECT_TRUE(obs::gate_compare(full_scale, history).empty());

  // Scenarios and stages new to the candidate produce no finding.
  obs::TrajectoryPoint cand =
      make_point("cand", 0.25, {0.5, 0.5, 0.5}, {0.2, 0.2, 0.2});
  obs::ScenarioPerf fresh;
  fresh.total = obs::WallStats::reduce({99.0});
  cand.scenarios.emplace("brand_new", std::move(fresh));
  cand.scenarios.at("threshold")
      .stages.emplace("new_stage", obs::WallStats::reduce({42.0}));
  const std::vector<obs::GateFinding> findings =
      obs::gate_compare(cand, history);
  ASSERT_EQ(findings.size(), 2u);
  for (const obs::GateFinding& finding : findings) {
    EXPECT_EQ(finding.scenario, "threshold");
    EXPECT_FALSE(finding.regression);
  }
}

namespace {

u::json::Value bench_doc(const std::string& id, double scale, double wall,
                         double sweep_wall) {
  std::ostringstream doc;
  doc << R"({"schema":"p2pvod-bench-v1","id":")" << id
      << R"(","scale":)" << scale << R"(,"wall_seconds":)" << wall
      << R"(,"stages":[{"name":"sweep","wall_seconds":)" << sweep_wall
      << "}]}";
  return u::json::parse(doc.str());
}

}  // namespace

TEST(ObsTrajectory, ReduceBenchRunsGroupsByScenarioId) {
  const std::vector<u::json::Value> documents = {
      bench_doc("threshold", 0.25, 1.0, 0.5),
      bench_doc("threshold", 0.25, 3.0, 0.7),
      bench_doc("churn", 0.25, 4.0, 1.0),
      bench_doc("threshold", 0.25, 2.0, 0.6),
  };
  const obs::TrajectoryPoint point =
      obs::reduce_bench_runs(documents, "ci-123");
  EXPECT_EQ(point.label, "ci-123");
  EXPECT_DOUBLE_EQ(point.scale, 0.25);
  ASSERT_EQ(point.scenarios.size(), 2u);
  const obs::ScenarioPerf& threshold = point.scenarios.at("threshold");
  EXPECT_EQ(threshold.total.runs, 3u);
  EXPECT_DOUBLE_EQ(threshold.total.median, 2.0);
  EXPECT_DOUBLE_EQ(threshold.stages.at("sweep").median, 0.6);
  EXPECT_EQ(point.scenarios.at("churn").total.runs, 1u);
  EXPECT_DOUBLE_EQ(point.scenarios.at("churn").total.median, 4.0);
}

TEST(ObsTrajectory, ReduceBenchRunsRejectsMixedScalesAndEmptyInput) {
  const std::vector<u::json::Value> mixed = {
      bench_doc("threshold", 0.25, 1.0, 0.5),
      bench_doc("threshold", 1.0, 4.0, 2.0),
  };
  EXPECT_THROW((void)obs::reduce_bench_runs(mixed, "x"), std::runtime_error);
  EXPECT_THROW((void)obs::reduce_bench_runs({}, "x"), std::runtime_error);
}

// --- scenario integration ---------------------------------------------------

namespace {

/// Sink capturing the completed run so tests can inspect ScenarioRun::metrics.
struct MetricsCapture final : sc::ResultSink {
  std::optional<sc::ScenarioRun> run;
  void on_complete(const sc::Scenario& /*scenario*/,
                   const sc::ScenarioRun& completed,
                   double /*wall_seconds*/) override {
    run = completed;
  }
};

/// Run a builtin scenario on a fresh pool and return the kStable slice of
/// its metric delta.
obs::MetricsSnapshot stable_metrics_with_threads(const std::string& id,
                                                 std::size_t threads) {
  const sc::Scenario& scenario = sc::ScenarioRegistry::builtin().at(id);
  u::ThreadPool pool(threads);
  sc::RunOptions options;
  options.sweep.pool = &pool;
  options.collect_metrics = true;
  MetricsCapture capture;
  sc::run_scenario(scenario, {&capture}, options);
  EXPECT_TRUE(capture.run.has_value());
  EXPECT_TRUE(capture.run->metrics.has_value());
  return capture.run->metrics->with_stability(obs::Stability::kStable);
}

}  // namespace

// The CSR engine's work counters (rows built, row patches, full rebuilds,
// ...), published from RunReport, are kStable: identical at 1, 4, and 8
// threads. Uses the E16 scale ladder, the scenario that runs the CSR engine
// at the largest sizes (every scenario without a topology runs on it).
TEST(ObsSparseCounters, SparsePathCountersAreThreadCountIndependent) {
  const ScopedEnv scale("P2PVOD_SCALE", "0.001");
  const obs::MetricsSnapshot serial =
      stable_metrics_with_threads("scaleladder", 1);
  const obs::MetricsSnapshot four =
      stable_metrics_with_threads("scaleladder", 4);
  const obs::MetricsSnapshot eight =
      stable_metrics_with_threads("scaleladder", 8);

  ASSERT_FALSE(serial.values.empty());
  // The run must actually have exercised the sparse engine.
  EXPECT_GT(serial.values.at("sim/sparse_rows_built").count, 0u);
  ASSERT_EQ(serial.values.count("sim/sparse_row_patches"), 1u);
  ASSERT_EQ(serial.values.count("sim/sparse_full_rebuilds"), 1u);

  EXPECT_EQ(serial.values.size(), four.values.size());
  EXPECT_EQ(serial.values.size(), eight.values.size());
  for (const auto& [name, value] : serial.values) {
    ASSERT_EQ(four.values.count(name), 1u) << name;
    ASSERT_EQ(eight.values.count(name), 1u) << name;
    EXPECT_EQ(value, four.values.at(name))
        << "metric drifted at 4 threads: " << name;
    EXPECT_EQ(value, eight.values.at(name))
        << "metric drifted at 8 threads: " << name;
  }
}

TEST(ObsProfileScenario, ProfileDirProducesValidProfileWithSweepSpans) {
  const std::string dir = testing::TempDir() + "/obs_profile_scenario";
  std::filesystem::remove_all(dir);
  const sc::Scenario& scenario =
      sc::ScenarioRegistry::builtin().at("threshold");
  const ScopedEnv scale("P2PVOD_SCALE", "0.25");
  u::ThreadPool pool(4);
  sc::RunOptions options;
  options.sweep.pool = &pool;
  options.profile_dir = dir;
  std::ostringstream out;
  sc::TableSink sink(out);
  sc::run_scenario(scenario, {&sink}, options);

  const std::string json_path = dir + "/PROFILE_threshold.json";
  ASSERT_TRUE(std::filesystem::exists(json_path));
  const u::json::Value doc = u::json::parse_file(json_path);
  EXPECT_EQ(doc.at("schema").as_string(), "p2pvod-profile-v1");
  EXPECT_GT(doc.at("span_count").as_number(), 0.0);

  std::ifstream collapsed_in(dir + "/PROFILE_threshold.collapsed",
                             std::ios::binary);
  ASSERT_TRUE(collapsed_in.good());
  std::ostringstream collapsed;
  collapsed << collapsed_in.rdbuf();
  EXPECT_NE(collapsed.str().find("sweep/point"), std::string::npos);
  EXPECT_NE(collapsed.str().find("scenario/threshold"), std::string::npos);
  for (const char* span : {";sim/admit ", ";sim/activate ", ";sim/retire "})
    EXPECT_NE(collapsed.str().find(span), std::string::npos) << span;
  // No trace was requested: profiling alone must not leave a trace file.
  EXPECT_FALSE(std::filesystem::exists(dir + "/TRACE_threshold.json"));
}

TEST(ObsSeriesScenario, SeriesDirProducesPerRoundCsvAndJson) {
  const std::string dir = testing::TempDir() + "/obs_series_scenario";
  std::filesystem::remove_all(dir);
  const sc::Scenario& scenario =
      sc::ScenarioRegistry::builtin().at("threshold");
  const ScopedEnv scale("P2PVOD_SCALE", "0.25");
  u::ThreadPool pool(4);
  sc::RunOptions options;
  options.sweep.pool = &pool;
  options.series_dir = dir;
  std::ostringstream out;
  sc::TableSink sink(out);
  sc::run_scenario(scenario, {&sink}, options);
  EXPECT_FALSE(obs::RoundSeries::active());  // runner closed the window

  const std::string json_path = dir + "/SERIES_threshold.json";
  ASSERT_TRUE(std::filesystem::exists(json_path));
  const u::json::Value doc = u::json::parse_file(json_path);
  EXPECT_EQ(doc.at("schema").as_string(), "p2pvod-series-v1");
  EXPECT_FALSE(doc.at("rounds").as_array().empty());
  ASSERT_TRUE(doc.at("series").is_object());
  EXPECT_NE(doc.at("series").find("sim/rounds"), nullptr);

  std::ifstream csv_in(dir + "/SERIES_threshold.csv");
  ASSERT_TRUE(csv_in.good());
  std::string header;
  std::getline(csv_in, header);
  EXPECT_EQ(header.rfind("round,", 0), 0u);
}

TEST(ObsProfileScenario, ApplyObsEnvReadsProfileAndSeriesKnobs) {
  sc::RunOptions options;
  {
    const ScopedEnv profile("P2PVOD_PROFILE", "/tmp/profiles");
    const ScopedEnv series("P2PVOD_SERIES", "/tmp/series");
    sc::apply_obs_env(options);
    EXPECT_EQ(options.profile_dir, "/tmp/profiles");
    EXPECT_EQ(options.series_dir, "/tmp/series");
  }
  sc::RunOptions off;
  sc::apply_obs_env(off);
  EXPECT_TRUE(off.profile_dir.empty());
  EXPECT_TRUE(off.series_dir.empty());
}
