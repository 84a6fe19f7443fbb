// Tests for the scenario subsystem: registry registration/lookup, sink
// behavior, the JSON result documents, baseline regression diffing, and
// thread-count determinism of every migrated figure scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/baseline.hpp"
#include "scenario/figures.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sink.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

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

/// A cheap deterministic scenario for sink/JSON tests. `delta` shifts every
/// metric so baseline-diff tests can fabricate drifted runs.
sc::Scenario synthetic_scenario(double delta = 0.0) {
  sc::Scenario scenario;
  scenario.id = "synthetic";
  scenario.figure = "T0";
  scenario.title = "T0 / synthetic";
  scenario.claim = "doubles the x axis";
  scenario.plan = [delta] {
    sc::Plan plan;
    p2pvod::sweep::ParameterGrid grid;
    grid.free_axis("x", {1, 2, 3});
    plan.stages.push_back(
        {"main", std::move(grid),
         {"twice"},
         [delta](const p2pvod::sweep::GridPoint& point,
                 std::uint64_t /*seed*/) {
           return std::vector<double>{2.0 * point.values[0] + delta};
         }});
    plan.render = [](const sc::ScenarioRun& run, sc::Emitter& out) {
      p2pvod::util::Table table("synthetic");
      table.set_header({"x", "2x"});
      for (const auto& row : run.stage(0).rows()) {
        table.begin_row().cell(row.point.values[0]).cell(row.metrics[0]);
      }
      out.table(table, "T0_synthetic");
      out.text("trailer\n");
    };
    return plan;
  };
  return scenario;
}

std::string run_with_threads(const sc::Scenario& scenario,
                             std::size_t threads) {
  std::ostringstream out;
  sc::TableSink sink(out);
  u::ThreadPool pool(threads);
  sc::RunOptions options;
  options.sweep.pool = &pool;
  sc::run_scenario(scenario, {&sink}, options);
  return out.str();
}

u::json::Value capture_json(const sc::Scenario& scenario) {
  sc::CaptureSink capture;
  sc::run_scenario(scenario, {&capture});
  return *capture.document();
}

/// Copy of `value` with every "wall_seconds" member below the top level
/// removed — reconstructs the shape of a baseline recorded before per-stage
/// and per-point timing existed.
u::json::Value strip_inner_timing(const u::json::Value& value, int depth) {
  if (value.is_object()) {
    u::json::Value out{u::json::Value::Object{}};
    for (const auto& [key, member] : value.as_object()) {
      if (depth > 0 && key == "wall_seconds") continue;
      out.set(key, strip_inner_timing(member, depth + 1));
    }
    return out;
  }
  if (value.is_array()) {
    u::json::Value::Array out;
    for (const auto& entry : value.as_array()) {
      out.push_back(strip_inner_timing(entry, depth + 1));
    }
    return u::json::Value{std::move(out)};
  }
  return value;
}

/// Sink retaining a copy of the run so tests can rebuild JSON documents with
/// a chosen wall time.
struct RunCapture final : sc::ResultSink {
  std::optional<sc::ScenarioRun> run;
  void on_complete(const sc::Scenario& /*scenario*/,
                   const sc::ScenarioRun& completed,
                   double /*wall_seconds*/) override {
    run = completed;
  }
};

}  // namespace

// --- registry ---------------------------------------------------------------

TEST(ScenarioRegistry, BuiltinHoldsAllSixteenFiguresInOrder) {
  const auto& registry = sc::ScenarioRegistry::builtin();
  ASSERT_EQ(registry.size(), 16u);
  std::vector<std::string> ids;
  std::vector<std::string> figures;
  for (const sc::Scenario* scenario : registry.list()) {
    ids.push_back(scenario->id);
    figures.push_back(scenario->figure);
  }
  EXPECT_EQ(ids, (std::vector<std::string>{
                     "table1", "threshold", "catalog_scaling", "replication",
                     "swarm_growth", "allocation", "hetero", "tradeoff",
                     "startup_delay", "obstruction", "baseline", "churn",
                     "crosszone", "zonecap", "scaleladder", "placement"}));
  EXPECT_EQ(figures, (std::vector<std::string>{
                         "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
                         "E10", "E11", "E13", "E14", "E15", "E16", "E17"}));
}

TEST(ScenarioRegistry, FindAndAtResolveIds) {
  const auto& registry = sc::ScenarioRegistry::builtin();
  ASSERT_NE(registry.find("threshold"), nullptr);
  EXPECT_EQ(registry.find("threshold")->figure, "E2");
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_EQ(registry.at("churn").figure, "E13");
  EXPECT_THROW((void)registry.at("nope"), std::out_of_range);
}

TEST(ScenarioRegistry, RejectsBadRegistrations) {
  sc::ScenarioRegistry registry;
  registry.add(synthetic_scenario());
  EXPECT_EQ(registry.size(), 1u);
  // Duplicate id.
  EXPECT_THROW(registry.add(synthetic_scenario()), std::invalid_argument);
  // Empty id.
  sc::Scenario unnamed = synthetic_scenario();
  unnamed.id.clear();
  EXPECT_THROW(registry.add(std::move(unnamed)), std::invalid_argument);
  // Missing plan.
  sc::Scenario planless = synthetic_scenario();
  planless.id = "planless";
  planless.plan = nullptr;
  EXPECT_THROW(registry.add(std::move(planless)), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

// --- scaled_count (bench scaling fix) ---------------------------------------

TEST(ScaledCount, RoundsToNearestInsteadOfTruncating) {
  const ScopedEnv scale("P2PVOD_SCALE", "0.9");
  // 3 * 0.9 = 2.7: truncation gave 2, rounding gives 3.
  EXPECT_EQ(u::scaled_count(3, 1), 3u);
  EXPECT_EQ(u::scaled_count(10, 1), 9u);
}

TEST(ScaledCount, RespectsFloor) {
  const ScopedEnv scale("P2PVOD_SCALE", "0.01");
  EXPECT_EQ(u::scaled_count(8, 2), 2u);
  EXPECT_EQ(u::scaled_count(100, 1), 1u);
}

TEST(ScaledCount, IdentityAtScaleOneAndScalesUp) {
  {
    const ScopedEnv scale("P2PVOD_SCALE", "1");
    EXPECT_EQ(u::scaled_count(48, 24), 48u);
  }
  {
    const ScopedEnv scale("P2PVOD_SCALE", "2.5");
    EXPECT_EQ(u::scaled_count(2, 1), 5u);
  }
}

// --- sinks and JSON documents ------------------------------------------------

TEST(ScenarioSinks, TableSinkPrintsBannerTablesAndText) {
  const auto output = run_with_threads(synthetic_scenario(), 1);
  EXPECT_NE(output.find("# T0 / synthetic — doubles the x axis"),
            std::string::npos);
  EXPECT_NE(output.find("== synthetic =="), std::string::npos);
  EXPECT_NE(output.find("trailer\n"), std::string::npos);
}

TEST(ScenarioSinks, RunToJsonRecordsStagesRowsAndWallTime) {
  const auto document = capture_json(synthetic_scenario());
  EXPECT_EQ(document.at("id").as_string(), "synthetic");
  EXPECT_EQ(document.at("figure").as_string(), "T0");
  EXPECT_GE(document.at("wall_seconds").as_number(), 0.0);
  const auto& stages = document.at("stages").as_array();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].at("name").as_string(), "main");
  const auto& rows = stages[0].at("rows").as_array();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[2].at("values").as_array()[0].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(rows[2].at("metrics").as_array()[0].as_number(), 6.0);
}

TEST(ScenarioSinks, RunToJsonRecordsPerStageAndPerPointWallTimes) {
  const auto document = capture_json(synthetic_scenario());
  const auto& stage = document.at("stages").as_array()[0];
  ASSERT_NE(stage.find("wall_seconds"), nullptr);
  EXPECT_GE(stage.at("wall_seconds").as_number(), 0.0);
  for (const auto& row : stage.at("rows").as_array()) {
    ASSERT_NE(row.find("wall_seconds"), nullptr);
    EXPECT_GE(row.at("wall_seconds").as_number(), 0.0);
  }
  // The timing fields survive a serialize/parse round trip unchanged.
  const auto reparsed = u::json::parse(document.dump());
  const auto& reparsed_stage = reparsed.at("stages").as_array()[0];
  EXPECT_DOUBLE_EQ(reparsed_stage.at("wall_seconds").as_number(),
                   stage.at("wall_seconds").as_number());
  EXPECT_DOUBLE_EQ(reparsed_stage.at("rows").as_array()[1].at("wall_seconds")
                       .as_number(),
                   stage.at("rows").as_array()[1].at("wall_seconds")
                       .as_number());
}

TEST(ScenarioSinks, JsonSinkWritesParseableBenchFile) {
  const std::string dir = testing::TempDir();
  sc::JsonSink sink(dir);
  sc::run_scenario(synthetic_scenario(), {&sink});
  ASSERT_EQ(sink.written().size(), 1u);
  EXPECT_EQ(sink.written()[0], dir + "/BENCH_synthetic.json");
  const auto document = u::json::parse_file(sink.written()[0]);
  EXPECT_EQ(document.at("id").as_string(), "synthetic");
  EXPECT_EQ(document.at("schema").as_string(), "p2pvod-bench-v1");
}

TEST(ScenarioSinks, CsvSinkWritesTableCsv) {
  const std::string dir = testing::TempDir();
  std::ostringstream notice;
  sc::CsvSink sink(dir, &notice);
  sc::run_scenario(synthetic_scenario(), {&sink});
  EXPECT_NE(notice.str().find("[csv] " + dir + "/T0_synthetic.csv"),
            std::string::npos);
  const auto parsed = std::ifstream(dir + "/T0_synthetic.csv").good();
  EXPECT_TRUE(parsed);
}

// --- baseline diff -----------------------------------------------------------

TEST(BaselineDiff, IdenticalRunPasses) {
  const auto document = capture_json(synthetic_scenario());
  EXPECT_TRUE(sc::diff_against_baseline(document, document).empty());
}

TEST(BaselineDiff, MetricDriftBeyondToleranceFails) {
  const auto current = capture_json(synthetic_scenario());
  const auto baseline = capture_json(synthetic_scenario(1.0));

  const auto violations = sc::diff_against_baseline(current, baseline);
  ASSERT_EQ(violations.size(), 3u);  // every row drifted by 1.0
  EXPECT_NE(violations[0].find("metric 'twice'"), std::string::npos);

  // A loose relative tolerance accepts the same drift.
  sc::BaselineOptions loose;
  loose.rtol = 0.5;
  EXPECT_TRUE(sc::diff_against_baseline(current, baseline, loose).empty());
}

TEST(BaselineDiff, WallTimeRegressionFailsUnlessDisabled) {
  const sc::Scenario scenario = synthetic_scenario();
  RunCapture capture;
  sc::run_scenario(scenario, {&capture});
  ASSERT_TRUE(capture.run.has_value());
  // Identical metrics; only the recorded wall times differ (1s vs 10s).
  const auto baseline = sc::run_to_json(scenario, *capture.run, 1.0);
  const auto current = sc::run_to_json(scenario, *capture.run, 10.0);

  sc::BaselineOptions strict;
  strict.wall_factor = 2.0;
  strict.wall_slack = 0.25;  // budget: 1 * 2 + 0.25 = 2.25s < 10s
  const auto violations = sc::diff_against_baseline(current, baseline, strict);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("wall time regressed"), std::string::npos);

  sc::BaselineOptions disabled = strict;
  disabled.wall_factor = 0.0;
  EXPECT_TRUE(sc::diff_against_baseline(current, baseline, disabled).empty());
  // The reverse direction (got faster) also passes.
  EXPECT_TRUE(sc::diff_against_baseline(baseline, current, strict).empty());
}

TEST(BaselineDiff, PerPointAndPerStageTimingNeverTriggersRegressions) {
  // Per-stage / per-point wall times are informational: however wildly they
  // drift from the baseline's, the diff must stay clean as long as metrics
  // agree. (Only the top-level wall_seconds participates in the wall check.)
  const sc::Scenario scenario = synthetic_scenario();
  RunCapture capture;
  sc::run_scenario(scenario, {&capture});
  ASSERT_TRUE(capture.run.has_value());

  sc::ScenarioRun slow_run = *capture.run;
  for (auto& stage : slow_run.stages) {
    stage.seconds += 3600.0;
    // Rebuild the stage result with inflated per-point timings.
    p2pvod::sweep::SweepResult inflated(stage.result.axis_names(),
                                        stage.result.metric_names(),
                                        stage.result.row_count());
    for (std::size_t i = 0; i < stage.result.row_count(); ++i) {
      const auto& row = stage.result.row(i);
      inflated.set_row(i, row.point, row.metrics, row.seconds + 900.0);
    }
    stage.result = std::move(inflated);
  }
  const auto baseline = sc::run_to_json(scenario, *capture.run, 1.0);
  const auto current = sc::run_to_json(scenario, slow_run, 1.0);

  sc::BaselineOptions strict;
  strict.wall_factor = 1.0;  // tightest wall budget: only top-level counts
  strict.wall_slack = 0.0;
  EXPECT_TRUE(sc::diff_against_baseline(current, baseline, strict).empty());

  // And a baseline recorded BEFORE the timing fields existed (no
  // wall_seconds on stages/rows) still diffs clean against a current run
  // that has them — old baselines stay valid.
  const auto stripped = strip_inner_timing(baseline, 0);
  EXPECT_TRUE(sc::diff_against_baseline(current, stripped, strict).empty());
}

namespace {

/// Copy of `value` with an extra member appended to every row object —
/// simulates a future bench adding per-point columns old baselines lack.
u::json::Value add_extra_row_keys(const u::json::Value& value) {
  if (value.is_object()) {
    u::json::Value out{u::json::Value::Object{}};
    for (const auto& [key, member] : value.as_object()) {
      out.set(key, add_extra_row_keys(member));
    }
    if (value.find("values") != nullptr && value.find("metrics") != nullptr) {
      out.set("debug_cost", 1.25);
    }
    return out;
  }
  if (value.is_array()) {
    u::json::Value::Array out;
    for (const auto& entry : value.as_array()) {
      out.push_back(add_extra_row_keys(entry));
    }
    return u::json::Value{std::move(out)};
  }
  return value;
}

/// Copy of `value` without its top-level "metrics" member — the shape of a
/// baseline recorded before the observability block existed.
u::json::Value drop_metrics_block(const u::json::Value& value) {
  u::json::Value out{u::json::Value::Object{}};
  for (const auto& [key, member] : value.as_object()) {
    if (key == "metrics") continue;
    out.set(key, member);
  }
  return out;
}

}  // namespace

TEST(BaselineDiff, MetricsBlockAndExtraRowKeysDiffCleanAgainstOldBaselines) {
  // A run recorded with --metrics gains a top-level "metrics" block (and a
  // future bench may add per-point keys); both must be invisible to the
  // baseline diff so old baselines keep validating new runs.
  sc::CaptureSink capture;
  sc::RunOptions options;
  options.collect_metrics = true;
  sc::run_scenario(synthetic_scenario(), {&capture}, options);
  const u::json::Value current = *capture.document();
  ASSERT_NE(current.find("metrics"), nullptr);
  ASSERT_TRUE(current.at("metrics").is_object());
  EXPECT_FALSE(current.at("metrics").as_object().empty());

  const u::json::Value inflated = add_extra_row_keys(current);
  const u::json::Value old_baseline = drop_metrics_block(current);
  ASSERT_EQ(old_baseline.find("metrics"), nullptr);

  sc::BaselineOptions strict;
  strict.rtol = 0.0;
  strict.atol = 0.0;
  strict.wall_factor = 0.0;
  EXPECT_TRUE(
      sc::diff_against_baseline(inflated, old_baseline, strict).empty());
  // And symmetrically: a metrics-bearing baseline validates a plain run.
  EXPECT_TRUE(
      sc::diff_against_baseline(old_baseline, inflated, strict).empty());
}

TEST(ScenarioRunner, CollectMetricsAttachesSnapshotToRunAndJson) {
  RunCapture capture;
  sc::RunOptions options;
  options.collect_metrics = true;
  sc::run_scenario(synthetic_scenario(), {&capture}, options);
  ASSERT_TRUE(capture.run.has_value());
  ASSERT_TRUE(capture.run->metrics.has_value());
  // The delta covers this run: the sweep executed 3 grid points.
  const auto& values = capture.run->metrics->values;
  ASSERT_EQ(values.count("sweep/points"), 1u);
  EXPECT_EQ(values.at("sweep/points").count, 3u);

  const auto document = sc::run_to_json(synthetic_scenario(), *capture.run, 1.0);
  ASSERT_NE(document.find("metrics"), nullptr);
  const auto* entry = document.at("metrics").find("sweep/points");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->at("kind").as_string(), "counter");
  EXPECT_EQ(entry->at("stability").as_string(), "stable");
  EXPECT_DOUBLE_EQ(entry->at("value").as_number(), 3.0);

  // Without the flag the run and its JSON stay metrics-free.
  RunCapture plain;
  sc::run_scenario(synthetic_scenario(), {&plain});
  ASSERT_TRUE(plain.run.has_value());
  EXPECT_FALSE(plain.run->metrics.has_value());
  const auto plain_doc = sc::run_to_json(synthetic_scenario(), *plain.run, 1.0);
  EXPECT_EQ(plain_doc.find("metrics"), nullptr);
}

TEST(BaselineDiff, StructuralChangesFail) {
  const auto current = capture_json(synthetic_scenario());

  sc::Scenario other = synthetic_scenario();
  other.id = "other";
  auto mismatched_id = capture_json(other);
  EXPECT_FALSE(sc::diff_against_baseline(current, mismatched_id).empty());

  // Different row count (extra axis value).
  sc::Scenario wider = synthetic_scenario();
  const auto narrow_plan = wider.plan;
  wider.plan = [narrow_plan] {
    sc::Plan plan = narrow_plan();
    p2pvod::sweep::ParameterGrid grid;
    grid.free_axis("x", {1, 2, 3, 4});
    plan.stages[0].grid = std::move(grid);
    return plan;
  };
  const auto wide = capture_json(wider);
  const auto violations = sc::diff_against_baseline(wide, current);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("row count changed"), std::string::npos);
}

TEST(BaselineDiff, MissingBaselineFileReportsViolation) {
  const auto current = capture_json(synthetic_scenario());
  const auto violations = sc::diff_against_baseline_file(
      current, testing::TempDir() + "/does_not_exist.json");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("cannot load baseline"), std::string::npos);
}

// --- determinism of every migrated figure ------------------------------------

class ScenarioDeterminism : public testing::TestWithParam<const char*> {};

// Every migrated scenario must print byte-identical tables on 1, 4, and 8
// threads (acceptance criterion for the sweep migration: which thread
// claims which chunk must not leak into output). Runs at a reduced scale to keep the suite fast; the scale
// floors still exercise the real sweep paths.
TEST_P(ScenarioDeterminism, TablesAreByteIdenticalAcrossThreadCounts) {
  const ScopedEnv scale("P2PVOD_SCALE", "0.25");
  const sc::Scenario& scenario =
      sc::ScenarioRegistry::builtin().at(GetParam());
  const std::string serial = run_with_threads(scenario, 1);
  EXPECT_EQ(serial, run_with_threads(scenario, 4));
  EXPECT_EQ(serial, run_with_threads(scenario, 8));
  EXPECT_FALSE(serial.empty());
}

INSTANTIATE_TEST_SUITE_P(AllFigures, ScenarioDeterminism,
                         testing::Values("table1", "threshold",
                                         "catalog_scaling", "replication",
                                         "swarm_growth", "allocation",
                                         "hetero", "tradeoff", "startup_delay",
                                         "obstruction", "baseline", "churn",
                                         "crosszone", "zonecap"));

// E16's smallest 0.25-scale rung is already 250 boxes × 6 rungs, too heavy
// for the parametrized sweep above; a tiny dedicated scale keeps the sparse
// round path inside the thread-count determinism net. (The suite name must
// keep the ScenarioDeterminism prefix: the tsan CI job filters on it.)
TEST(ScenarioDeterminismSparse, ScaleLadderIsByteIdenticalAcrossThreads) {
  const ScopedEnv scale("P2PVOD_SCALE", "0.01");
  const sc::Scenario& scenario =
      sc::ScenarioRegistry::builtin().at("scaleladder");
  const std::string serial = run_with_threads(scenario, 1);
  EXPECT_EQ(serial, run_with_threads(scenario, 4));
  EXPECT_EQ(serial, run_with_threads(scenario, 8));
  EXPECT_FALSE(serial.empty());
}
