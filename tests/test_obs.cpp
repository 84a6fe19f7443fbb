// Tests for the observability layer (src/obs/): metric registry semantics,
// sharded counter exactness under parallel increments, histogram bucketing,
// snapshot/delta/stability filtering, trace session recording and Chrome
// trace-event output, and the headline determinism contract — the kStable
// metric slice of a scenario run is identical at 1, 4, and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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
  std::vector<std::future<void>> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.push_back(pool.submit([&done, &recorded] {
      while (!done.load(std::memory_order_acquire)) {
        OBS_INSTANT("test/worker");
        recorded.fetch_add(1, std::memory_order_acq_rel);
      }
    }));
  }
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
  for (std::future<void>& worker : workers) worker.get();
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
// of a scenario run is identical at 1, 4, and 8 threads. Scheduling metrics
// (pool steals, trace drops) are excluded by construction via the stability
// tag. Uses "threshold" (E2), whose calibration path evaluates a fixed,
// thread-count-independent trial set.
TEST(ObsDeterminism, StableMetricsIdenticalAcrossThreadCounts) {
  const ScopedEnv scale("P2PVOD_SCALE", "0.25");
  const obs::MetricsSnapshot serial =
      stable_metrics_with_threads("threshold", 1);
  const obs::MetricsSnapshot four = stable_metrics_with_threads("threshold", 4);
  const obs::MetricsSnapshot eight =
      stable_metrics_with_threads("threshold", 8);

  ASSERT_FALSE(serial.values.empty());
  // The run must actually have exercised the instrumented hot paths.
  EXPECT_GT(serial.values.at("sim/rounds").count, 0u);
  EXPECT_GT(serial.values.at("sweep/points").count, 0u);

  EXPECT_EQ(serial.values.size(), four.values.size());
  EXPECT_EQ(serial.values.size(), eight.values.size());
  for (const auto& [name, value] : serial.values) {
    ASSERT_EQ(four.values.count(name), 1u) << name;
    ASSERT_EQ(eight.values.count(name), 1u) << name;
    EXPECT_EQ(value, four.values.at(name)) << "metric drifted at 4 threads: "
                                           << name;
    EXPECT_EQ(value, eight.values.at(name)) << "metric drifted at 8 threads: "
                                            << name;
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
  for (const auto& event : events) {
    const std::string& name = event.at("name").as_string();
    if (name == "sweep/point") saw_sweep_point = true;
    if (name.rfind("scenario/threshold", 0) == 0) saw_scenario_span = true;
    EXPECT_NE(event.find("ph"), nullptr);
    EXPECT_NE(event.find("ts"), nullptr);
    EXPECT_NE(event.find("pid"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
  }
  EXPECT_TRUE(saw_sweep_point);
  EXPECT_TRUE(saw_scenario_span);
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
