// Tests for the observability layer (src/obs/): metric registry semantics,
// sharded counter exactness under parallel increments, histogram bucketing,
// snapshot/delta/stability filtering, trace session recording and Chrome
// trace-event output, the headline determinism contract — the kStable
// metric slice of a scenario run is identical at 1, 4, and 8 threads — and
// run accounting: the sim/ metrics equal the RunReports they are published
// from.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <latch>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/permutation.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "net/topology.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sink.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "sim/strategy.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/zipf.hpp"

namespace a = p2pvod::alloc;
namespace m = p2pvod::model;
namespace n = p2pvod::net;
namespace obs = p2pvod::obs;
namespace s = p2pvod::sim;
namespace sc = p2pvod::scenario;
namespace u = p2pvod::util;
namespace w = p2pvod::workload;

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

}  // namespace

// --- clock ------------------------------------------------------------------

TEST(ObsClock, MonotonicNsDoesNotGoBackwards) {
  const std::uint64_t a = obs::monotonic_ns();
  const std::uint64_t b = obs::monotonic_ns();
  EXPECT_GE(b, a);
  const obs::WallTimer timer;
  EXPECT_GE(timer.seconds(), 0.0);
}

// --- registry ---------------------------------------------------------------

TEST(ObsMetrics, CounterRegistrationIsIdempotent) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("flow/x");
  obs::Counter& b = registry.counter("flow/x");
  EXPECT_EQ(&a, &b);
  a.add();
  b.add(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(a.name(), "flow/x");
  EXPECT_EQ(a.stability(), obs::Stability::kStable);
}

TEST(ObsMetrics, KindClashThrows) {
  obs::MetricsRegistry registry;
  (void)registry.counter("m");
  EXPECT_THROW((void)registry.gauge("m"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("m", {1, 2}), std::logic_error);
  (void)registry.histogram("h", {1, 2});
  EXPECT_THROW((void)registry.counter("h"), std::logic_error);
  // Re-registering a histogram with different bounds is a bug, not a merge.
  EXPECT_THROW((void)registry.histogram("h", {1, 2, 3}), std::logic_error);
  (void)registry.histogram("h", {1, 2});  // same bounds: fine
}

TEST(ObsMetrics, HistogramValidatesBounds) {
  obs::MetricsRegistry registry;
  EXPECT_THROW((void)registry.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("dup", {1, 1, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("desc", {4, 2}),
               std::invalid_argument);
}

TEST(ObsMetrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("h", {1, 2, 4});
  for (const std::uint64_t v : {0u, 1u, 2u, 3u, 4u, 5u, 100u}) h.observe(v);
  // Buckets: <=1, <=2, <=4, overflow.
  EXPECT_EQ(h.bucket_counts(),
            (std::vector<std::uint64_t>{2, 1, 2, 2}));
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 5 + 100);
}

TEST(ObsMetrics, GaugeSetAndRecordMax) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("g");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.record_max(3);  // below: no change
  EXPECT_EQ(g.value(), 7);
  g.record_max(11);
  EXPECT_EQ(g.value(), 11);
  g.set(-2);
  EXPECT_EQ(g.value(), -2);
}

TEST(ObsMetrics, Pow2BoundsShape) {
  EXPECT_EQ(obs::pow2_bounds(3), (std::vector<std::uint64_t>{1, 2, 4, 8}));
}

TEST(ObsMetrics, ShardedCounterIsExactUnderParallelIncrements) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("parallel/adds");
  u::ThreadPool pool(8);
  constexpr std::size_t kAdds = 100000;
  u::parallel_for(
      0, kAdds, [&](std::size_t) { counter.add(); }, &pool);
  // Exactly-once accounting: no increment lost to contention or sharding.
  EXPECT_EQ(counter.value(), kAdds);
}

TEST(ObsMetrics, SnapshotIsNameOrderedAndDeltaSubtracts) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("b/counter");
  obs::Gauge& g = registry.gauge("a/gauge");
  obs::Histogram& h = registry.histogram("c/hist", {1, 2});
  c.add(5);
  g.set(9);
  h.observe(1);
  h.observe(3);
  const obs::MetricsSnapshot before = registry.snapshot();

  std::vector<std::string> names;
  for (const auto& [name, value] : before.values) names.push_back(name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"a/gauge", "b/counter", "c/hist"}));

  c.add(2);
  g.set(4);
  h.observe(2);
  const obs::MetricsSnapshot delta = registry.snapshot().delta_since(before);
  EXPECT_EQ(delta.values.at("b/counter").count, 2u);
  // Gauges are instantaneous: the delta keeps the current reading.
  EXPECT_EQ(delta.values.at("a/gauge").gauge, 4);
  EXPECT_EQ(delta.values.at("c/hist").count, 1u);
  EXPECT_EQ(delta.values.at("c/hist").sum, 2u);
  EXPECT_EQ(delta.values.at("c/hist").buckets,
            (std::vector<std::uint64_t>{0, 1, 0}));
}

TEST(ObsMetrics, WithStabilityFiltersTheSnapshot) {
  obs::MetricsRegistry registry;
  registry.counter("stable/one").add();
  registry.counter("sched/steals", obs::Stability::kScheduling).add(4);
  const obs::MetricsSnapshot all = registry.snapshot();
  const obs::MetricsSnapshot stable =
      all.with_stability(obs::Stability::kStable);
  EXPECT_EQ(stable.values.size(), 1u);
  EXPECT_EQ(stable.values.count("stable/one"), 1u);
  const obs::MetricsSnapshot sched =
      all.with_stability(obs::Stability::kScheduling);
  EXPECT_EQ(sched.values.size(), 1u);
  EXPECT_EQ(sched.values.at("sched/steals").count, 4u);
}

TEST(ObsMetrics, ToJsonCarriesKindStabilityAndValues) {
  obs::MetricsRegistry registry;
  registry.counter("a/c").add(3);
  registry.gauge("a/g", obs::Stability::kWallClock).set(-1);
  registry.histogram("a/h", {2, 4}, obs::Stability::kScheduling).observe(3);
  const u::json::Value doc = registry.snapshot().to_json();
  EXPECT_EQ(doc.at("a/c").at("kind").as_string(), "counter");
  EXPECT_EQ(doc.at("a/c").at("stability").as_string(), "stable");
  EXPECT_DOUBLE_EQ(doc.at("a/c").at("value").as_number(), 3.0);
  EXPECT_EQ(doc.at("a/g").at("kind").as_string(), "gauge");
  EXPECT_EQ(doc.at("a/g").at("stability").as_string(), "wall-clock");
  EXPECT_DOUBLE_EQ(doc.at("a/g").at("value").as_number(), -1.0);
  EXPECT_EQ(doc.at("a/h").at("kind").as_string(), "histogram");
  EXPECT_EQ(doc.at("a/h").at("stability").as_string(), "scheduling");
  EXPECT_DOUBLE_EQ(doc.at("a/h").at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(doc.at("a/h").at("sum").as_number(), 3.0);
  ASSERT_EQ(doc.at("a/h").at("buckets").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a/h").at("buckets").as_array()[1].as_number(), 1.0);
}

TEST(ObsMetrics, GlobalRegistryHasTheInstrumentedFamilies) {
  // The hot paths register through function-local statics on first use; the
  // global registry must at minimum resolve the names without kind clashes.
  auto& registry = obs::MetricsRegistry::global();
  (void)registry.counter("pool/submitted", obs::Stability::kScheduling);
  (void)registry.counter("flow/dinic_solves");
  (void)registry.counter("sim/rounds");
  (void)registry.counter("sweep/points");
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_GE(snapshot.values.size(), 4u);
}

// --- trace sessions ---------------------------------------------------------

TEST(ObsTrace, InactiveSessionRecordsNothing) {
  ASSERT_FALSE(obs::TraceSession::active());
  {
    OBS_SPAN("test/ignored");
    OBS_INSTANT("test/ignored_instant");
  }
  EXPECT_TRUE(obs::TraceSession::stop().empty());
}

TEST(ObsTrace, RecordsSpansAndInstantsSortedByTimestamp) {
  obs::TraceSession::start();
  ASSERT_TRUE(obs::TraceSession::active());
  {
    OBS_SPAN("test/outer");
    { OBS_SPAN("test/inner"); }
    OBS_INSTANT("test/tick");
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();
  EXPECT_FALSE(obs::TraceSession::active());
  ASSERT_EQ(events.size(), 3u);
  std::set<std::string> names;
  for (const obs::TraceEvent& event : events) names.insert(event.name);
  EXPECT_EQ(names, (std::set<std::string>{"test/outer", "test/inner",
                                          "test/tick"}));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
  for (const obs::TraceEvent& event : events) {
    if (event.phase == 'X') continue;
    EXPECT_EQ(event.phase, 'i');
    EXPECT_EQ(event.dur_ns, 0u);
  }
}

TEST(ObsTrace, DynamicSpanBuildsNameOnlyWhenActive) {
  obs::TraceSession::start();
  {
    const std::string id = "threshold";
    OBS_SPAN_DYN([&] { return "scenario/" + id; });
  }
  const auto events = obs::TraceSession::stop();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "scenario/threshold");
  EXPECT_EQ(events[0].phase, 'X');
}

TEST(ObsTrace, RingOverwritesOldestAndCountsDrops) {
  const std::uint64_t dropped_before = obs::TraceSession::dropped_events();
  obs::TraceSession::Options options;
  options.ring_capacity = 4;
  obs::TraceSession::start(options);
  for (int i = 0; i < 10; ++i) OBS_INSTANT("test/flood");
  const auto events = obs::TraceSession::stop();
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(obs::TraceSession::dropped_events() - dropped_before, 6u);
}

TEST(ObsTrace, StartWhileActiveIsANoop) {
  obs::TraceSession::start();
  OBS_INSTANT("test/kept");
  obs::TraceSession::start();  // must not clear the buffer
  OBS_INSTANT("test/kept_too");
  EXPECT_EQ(obs::TraceSession::stop().size(), 2u);
}

TEST(ObsTrace, ChromeJsonHasRequiredFieldsAndRelativeMicroseconds) {
  obs::TraceSession::start();
  {
    OBS_SPAN("test/span");
    OBS_INSTANT("test/instant");
  }
  const auto events = obs::TraceSession::stop();
  const std::string json = obs::TraceSession::to_chrome_json(events);
  const u::json::Value doc = u::json::parse(json);
  const auto& trace_events = doc.at("traceEvents").as_array();
  ASSERT_EQ(trace_events.size(), events.size());
  for (const auto& event : trace_events) {
    EXPECT_TRUE(event.at("name").is_string());
    EXPECT_TRUE(event.at("ph").is_string());
    EXPECT_TRUE(event.at("ts").is_number());
    EXPECT_TRUE(event.at("pid").is_number());
    EXPECT_TRUE(event.at("tid").is_number());
    EXPECT_GE(event.at("ts").as_number(), 0.0);  // relative to earliest
    if (event.at("ph").as_string() == "X") {
      EXPECT_TRUE(event.at("dur").is_number());
    }
    // "cat" is the module prefix of "module/name".
    EXPECT_EQ(event.at("cat").as_string(), "test");
  }
}

TEST(ObsTrace, StopToFileWritesParseableFileAndCreatesDirectories) {
  const std::string dir = testing::TempDir() + "/obs_trace_nested/deeper";
  const std::string path = dir + "/TRACE_test.json";
  std::filesystem::remove_all(testing::TempDir() + "/obs_trace_nested");
  obs::TraceSession::start();
  { OBS_SPAN("test/file_span"); }
  obs::TraceSession::stop_to_file(path);
  ASSERT_TRUE(std::filesystem::exists(path));
  const u::json::Value doc = u::json::parse_file(path);
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 1u);
}

// Pool workers record while the main thread cycles sessions, so each
// worker's first event of a session resets its buffer while stop() may be
// walking the buffers. Under TSan (the CI job runs *Concurrency*) this
// catches a lock-order inversion between the buffer and session locks, not
// only an actual deadlock.
TEST(TraceConcurrency, WorkersRecordWhileSessionsStartAndStop) {
  ASSERT_FALSE(obs::TraceSession::active());
  constexpr int kWorkers = 4;
  u::ThreadPool pool(kWorkers);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> recorded{0};
  // One grain-1 chunk per recorder, each recording until `done`. The loop's
  // caller claims a chunk too, so the loop runs on its own thread.
  std::thread recorders([&pool, &done, &recorded] {
    u::parallel_for(
        0, kWorkers,
        [&done, &recorded](std::size_t) {
          while (!done.load(std::memory_order_acquire)) {
            OBS_INSTANT("test/worker");
            recorded.fetch_add(1, std::memory_order_acq_rel);
          }
        },
        &pool, /*grain=*/1);
  });
  obs::TraceSession::Options options;
  options.ring_capacity = 64;
  std::size_t events_seen = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    obs::TraceSession::start(options);
    // Let the workers get some events in before the session closes.
    const std::uint64_t before = recorded.load(std::memory_order_acquire);
    while (recorded.load(std::memory_order_acquire) < before + 2 * kWorkers)
      std::this_thread::yield();
    const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();
    EXPECT_LE(events.size(), kWorkers * options.ring_capacity);
    for (const obs::TraceEvent& event : events)
      EXPECT_EQ(event.name, "test/worker");
    events_seen += events.size();
  }
  done.store(true, std::memory_order_release);
  recorders.join();
  EXPECT_GT(events_seen, 0u);
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

// The headline determinism contract: every kStable counter/histogram delta
// of a scenario run is identical on sweep pools of 1, 4, and 8 threads.
// Scheduling metrics (pool runners, trace drops) are excluded by construction
// via the stability tag. Covers "threshold" (E2, fixed trial set per point)
// and the three calibration-search scenarios, "tradeoff" (E8),
// "catalog_scaling" (E3) and "replication" (E4), whose probe sequence
// depends on measured success rates: the searches must evaluate the same
// trials whatever pool the sweep or the trials run on.
TEST(ObsDeterminism, StableMetricsIdenticalAcrossThreadCounts) {
  const ScopedEnv scale("P2PVOD_SCALE", "0.25");
  for (const std::string id :
       {"threshold", "tradeoff", "catalog_scaling", "replication"}) {
    SCOPED_TRACE(id);
    const obs::MetricsSnapshot serial = stable_metrics_with_threads(id, 1);
    const obs::MetricsSnapshot four = stable_metrics_with_threads(id, 4);
    const obs::MetricsSnapshot eight = stable_metrics_with_threads(id, 8);

    ASSERT_FALSE(serial.values.empty());
    // The run must actually have exercised the instrumented hot paths.
    EXPECT_GT(serial.values.at("sim/rounds").count, 0u);
    EXPECT_GT(serial.values.at("sweep/points").count, 0u);

    EXPECT_EQ(serial.values.size(), four.values.size());
    EXPECT_EQ(serial.values.size(), eight.values.size());
    for (const auto& [name, value] : serial.values) {
      ASSERT_EQ(four.values.count(name), 1u) << name;
      ASSERT_EQ(eight.values.count(name), 1u) << name;
      const obs::MetricValue& at_four = four.values.at(name);
      const obs::MetricValue& at_eight = eight.values.at(name);
      EXPECT_EQ(value, at_four) << "metric drifted at 4 threads: " << name
                                << " count " << value.count << " vs "
                                << at_four.count;
      EXPECT_EQ(value, at_eight) << "metric drifted at 8 threads: " << name
                                 << " count " << value.count << " vs "
                                 << at_eight.count;
    }
  }
}

TEST(ObsScenario, TraceDirProducesLoadableTraceWithSweepSpans) {
  const std::string dir = testing::TempDir() + "/obs_scenario_trace";
  std::filesystem::remove_all(dir);
  const sc::Scenario& scenario =
      sc::ScenarioRegistry::builtin().at("threshold");
  const ScopedEnv scale("P2PVOD_SCALE", "0.25");
  u::ThreadPool pool(4);
  sc::RunOptions options;
  options.sweep.pool = &pool;
  options.trace_dir = dir;
  std::ostringstream out;
  sc::TableSink sink(out);
  sc::run_scenario(scenario, {&sink}, options);

  const std::string path = dir + "/TRACE_threshold.json";
  ASSERT_TRUE(std::filesystem::exists(path));
  const u::json::Value doc = u::json::parse_file(path);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  bool saw_sweep_point = false;
  bool saw_scenario_span = false;
  std::set<std::string> sim_spans;
  for (const auto& event : events) {
    const std::string& name = event.at("name").as_string();
    if (name == "sweep/point") saw_sweep_point = true;
    if (name.rfind("scenario/threshold", 0) == 0) saw_scenario_span = true;
    if (name.rfind("sim/", 0) == 0) sim_spans.insert(name);
    EXPECT_NE(event.find("ph"), nullptr);
    EXPECT_NE(event.find("ts"), nullptr);
    EXPECT_NE(event.find("pid"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
  }
  EXPECT_TRUE(saw_sweep_point);
  EXPECT_TRUE(saw_scenario_span);
  // Every phase of a round has a span.
  for (const char* span : {"sim/admit", "sim/activate", "sim/cache_prune",
                           "sim/solve_round", "sim/retire"})
    EXPECT_EQ(sim_spans.count(span), 1u) << span;
}

TEST(ObsScenario, ApplyObsEnvReadsTheKnobs) {
  sc::RunOptions options;
  {
    const ScopedEnv metrics("P2PVOD_METRICS", "1");
    const ScopedEnv trace("P2PVOD_TRACE", "/tmp/traces");
    sc::apply_obs_env(options);
    EXPECT_TRUE(options.collect_metrics);
    EXPECT_EQ(options.trace_dir, "/tmp/traces");
  }
  sc::RunOptions off;
  {
    const ScopedEnv metrics("P2PVOD_METRICS", "0");
    sc::apply_obs_env(off);
    EXPECT_FALSE(off.collect_metrics);
    EXPECT_TRUE(off.trace_dir.empty());
  }
}

// --- run accounting: RunReport is the source of the sim/ metrics ------------

namespace {

/// Every cumulative std::uint64_t count of RunReport and the metric it must
/// be published as. Written out independently of sim::kReportCounters, so a
/// row missing from (or added to) that table fails the tests below.
struct ExpectedRow {
  std::uint64_t s::RunReport::*field;
  std::string_view metric;
};
constexpr ExpectedRow kExpectedRows[] = {
    {&s::RunReport::demands_admitted, "sim/demands_admitted"},
    {&s::RunReport::demands_rejected, "sim/demands_rejected"},
    {&s::RunReport::requests_issued, "sim/requests_issued"},
    {&s::RunReport::chunks_served, "sim/chunks_matched"},
    {&s::RunReport::chunks_stalled, "sim/chunks_unmatched"},
    {&s::RunReport::sessions_completed, "sim/sessions_completed"},
    {&s::RunReport::box_failures, "sim/box_failures"},
    {&s::RunReport::sessions_aborted, "sim/sessions_aborted"},
    {&s::RunReport::kept_connections, "sim/sparse_kept_connections"},
    {&s::RunReport::new_connections, "sim/sparse_new_connections"},
    {&s::RunReport::matcher_edges, "sim/matcher_edges"},
    {&s::RunReport::rows_built, "sim/sparse_rows_built"},
    {&s::RunReport::row_patches, "sim/sparse_row_patches"},
    {&s::RunReport::sparse_full_rebuilds, "sim/sparse_full_rebuilds"},
    {&s::RunReport::expiry_events, "sim/sparse_expiry_events"},
    {&s::RunReport::intra_zone_chunks, "sim/intra_zone_chunks"},
    {&s::RunReport::cross_zone_chunks, "sim/cross_zone_chunks"},
    {&s::RunReport::link_cap_rejections, "sim/link_cap_rejections"},
    {&s::RunReport::link_cap_rescues, "sim/link_cap_rescues"},
};

/// The sim/ names benchmark/workloads.cpp reads from the registry.
constexpr std::string_view kBenchmarkSimMetrics[] = {
    "sim/rounds",
    "sim/round_active_requests",
    "sim/demands_admitted",
    "sim/demands_rejected",
    "sim/chunks_matched",
    "sim/chunks_unmatched",
    "sim/matcher_edges",
    "sim/sparse_expiry_events",
    "sim/sparse_kept_connections",
    "sim/sparse_new_connections",
    "sim/link_cap_rejections",
    "sim/link_cap_rescues",
    "sim/intra_zone_chunks",
    "sim/cross_zone_chunks",
};

/// Table rows plus the two derived rows.
bool is_report_metric(std::string_view name) {
  if (name == s::kRoundsMetric || name == s::kActiveRequestsMetric)
    return true;
  return std::any_of(
      s::kReportCounters.begin(), s::kReportCounters.end(),
      [name](const s::ReportCounter& row) { return row.metric == name; });
}

/// One simulated run of the accounting tests.
struct AccountingConfig {
  const char* name;
  std::uint32_t boxes;
  double upload;
  std::uint32_t zones;     ///< 0: no topology, the CSR engine
  std::uint32_t link_cap;  ///< 0: uncapped
  bool strict;
  std::uint32_t churn;  ///< boxes failing per round, each back 3 rounds later
  m::Round rounds;
};

constexpr AccountingConfig kAccountingConfigs[] = {
    {"csr_churn", 120, 0.9, 0, 0, false, 2, 40},
    {"zone_link_caps", 64, 1.5, 8, 2, false, 0, 40},
    {"strict_stall", 80, 0.6, 0, 0, true, 0, 40},
};

/// Run `config` to completion. A churned run ends with one more failure
/// after its last step: a box still watching a video goes offline.
s::RunReport run_accounting(const AccountingConfig& config,
                            std::uint64_t seed) {
  const m::Catalog catalog(config.boxes * 2 / 3, 4, 10);
  const auto profile =
      m::CapacityProfile::homogeneous(config.boxes, config.upload, 4.0);
  u::Rng rng(seed);
  const a::Allocation allocation =
      a::PermutationAllocator().allocate(catalog, profile, 6, rng);
  std::optional<n::Topology> topology;
  s::SimulatorOptions options;
  options.strict = config.strict;
  if (config.zones > 0) {
    topology.emplace(n::Topology::uniform(config.boxes, config.zones));
    topology->set_uniform_cost(0, 1);
    if (config.link_cap > 0) topology->set_uniform_link_cap(config.link_cap);
    options.topology = &*topology;
  }
  s::PreloadingStrategy strategy;
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  w::ZipfDemand audience(catalog.video_count(), 0.8, 0.4, seed + 1);

  std::deque<std::pair<m::Round, m::BoxId>> down;
  m::BoxId cursor = 0;
  for (m::Round round = 0; round < config.rounds; ++round) {
    while (!down.empty() && down.front().first <= round) {
      sim.set_box_online(down.front().second, true);
      down.pop_front();
    }
    for (std::uint32_t i = 0; i < config.churn; ++i) {
      const m::BoxId victim = cursor;
      cursor = (cursor + 1) % config.boxes;
      if (!sim.box_online(victim)) continue;
      sim.set_box_online(victim, false);
      down.emplace_back(round + 3, victim);
    }
    sim.step(audience.demands(sim));
  }
  if (config.churn > 0) {
    for (m::BoxId b = 0; b < config.boxes; ++b) {
      if (sim.box_online(b) && !sim.box_idle(b)) {
        sim.set_box_online(b, false);
        break;
      }
    }
  }
  return sim.report();
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& delta,
                            std::string_view name) {
  const auto it = delta.values.find(std::string(name));
  return it == delta.values.end() ? 0 : it->second.count;
}

/// The registry delta of one or more runs equals the sum of their reports,
/// row by row, and holds no sim/ counter the table does not publish.
void expect_metrics_equal_reports(const obs::MetricsSnapshot& delta,
                                  const std::vector<s::RunReport>& reports) {
  for (const ExpectedRow& row : kExpectedRows) {
    std::uint64_t total = 0;
    for (const s::RunReport& report : reports) total += report.*row.field;
    EXPECT_EQ(counter_delta(delta, row.metric), total) << row.metric;
  }
  std::uint64_t rounds = 0;
  double active_sum = 0.0;
  for (const s::RunReport& report : reports) {
    rounds += static_cast<std::uint64_t>(report.rounds);
    active_sum += report.active_requests.sum();
  }
  EXPECT_EQ(counter_delta(delta, s::kRoundsMetric), rounds);
  const auto histogram =
      delta.values.find(std::string(s::kActiveRequestsMetric));
  ASSERT_NE(histogram, delta.values.end());
  EXPECT_EQ(histogram->second.count, rounds);
  EXPECT_EQ(static_cast<double>(histogram->second.sum), active_sum);

  for (const auto& [name, value] : delta.values) {
    if (name.rfind("sim/", 0) != 0 ||
        value.kind != obs::MetricValue::Kind::kCounter)
      continue;
    EXPECT_TRUE(is_report_metric(name)) << name << " has no RunReport row";
  }
}

}  // namespace

TEST(RunReportMetrics, TableMapsEveryCountAndEveryBenchmarkName) {
  ASSERT_EQ(s::kReportCounters.size(), std::size(kExpectedRows));
  for (const ExpectedRow& expected : kExpectedRows) {
    const auto row = std::find_if(
        s::kReportCounters.begin(), s::kReportCounters.end(),
        [&](const s::ReportCounter& r) { return r.field == expected.field; });
    ASSERT_NE(row, s::kReportCounters.end()) << expected.metric;
    EXPECT_EQ(row->metric, expected.metric);
  }
  for (const std::string_view name : kBenchmarkSimMetrics)
    EXPECT_TRUE(is_report_metric(name)) << name;
}

TEST(RunReportMetrics, PublishedMetricsEqualTheReport) {
  auto& registry = obs::MetricsRegistry::global();
  for (const AccountingConfig& config : kAccountingConfigs) {
    SCOPED_TRACE(config.name);
    const obs::MetricsSnapshot before = registry.snapshot();
    const s::RunReport report = run_accounting(config, 7);
    expect_metrics_equal_reports(registry.snapshot().delta_since(before),
                                 {report});

    // Each config must reach the accounting it exists to cover.
    EXPECT_GT(report.rounds, 0);
    EXPECT_GT(report.rows_built, 0u);
    if (config.churn > 0) {
      EXPECT_GT(report.sessions_aborted, 0u);
      EXPECT_GT(report.expiry_events, 0u);
      EXPECT_GT(report.chunks_stalled, 0u);
    }
    if (config.link_cap > 0) {
      EXPECT_GT(report.link_cap_rejections, 0u);
      EXPECT_GT(report.link_cap_rescues, 0u);
    }
    if (config.strict) {
      EXPECT_FALSE(report.success);
      EXPECT_GT(report.chunks_stalled, 0u);
    }
  }
}

// Nine simulators step on the pool at once; the registry deltas must equal
// the sum of their reports. The gcc-tsan CI job runs this (*Concurrency*).
TEST(AccountingConcurrency, ConcurrentRunsPublishTheSumOfTheirReports) {
  constexpr std::size_t kConfigs = std::size(kAccountingConfigs);
  constexpr std::size_t kRuns = kConfigs * 3;
  static_assert(kRuns >= 8);
  std::vector<s::RunReport> reports(kRuns);
  auto& registry = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot before = registry.snapshot();
  {
    // One run per grain-1 chunk. The kRuns workers and the caller claim
    // chunks, and a claimer waits at the latch until every run has started,
    // so each run gets a thread of its own.
    u::ThreadPool pool(kRuns);
    std::latch start(kRuns);
    u::parallel_for(
        0, kRuns,
        [&](std::size_t i) {
          start.arrive_and_wait();
          reports[i] =
              run_accounting(kAccountingConfigs[i % kConfigs], 11 + i);
        },
        &pool, /*grain=*/1);
  }
  expect_metrics_equal_reports(registry.snapshot().delta_since(before),
                               reports);
}
