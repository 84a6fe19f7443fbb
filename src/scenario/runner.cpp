#include "scenario/runner.hpp"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace p2pvod::scenario {

namespace {

/// Stops recording sessions abandoned by an exception unwinding through
/// run_scenario, so a failed scenario doesn't leave trace or time-series
/// recording enabled for the rest of the process.
struct ObsAbortGuard {
  bool trace_armed = false;
  bool series_armed = false;
  ~ObsAbortGuard() {
    if (trace_armed && obs::TraceSession::active())
      (void)obs::TraceSession::stop();
    if (series_armed && obs::RoundSeries::active())
      (void)obs::RoundSeries::stop();
  }
};

}  // namespace

void apply_obs_env(RunOptions& options) {
  if (const char* metrics = std::getenv("P2PVOD_METRICS");
      metrics != nullptr && std::string(metrics) != "0") {
    options.collect_metrics = true;
  }
  if (const char* trace = std::getenv("P2PVOD_TRACE");
      trace != nullptr && *trace != '\0') {
    options.trace_dir = trace;
  }
  if (const char* profile = std::getenv("P2PVOD_PROFILE");
      profile != nullptr && *profile != '\0') {
    options.profile_dir = profile;
  }
  if (const char* series = std::getenv("P2PVOD_SERIES");
      series != nullptr && *series != '\0') {
    options.series_dir = series;
  }
}

double run_scenario(const Scenario& scenario,
                    const std::vector<ResultSink*>& sinks,
                    const RunOptions& options) {
  Emitter emitter(scenario, sinks);
  emitter.banner();

  const bool tracing = !options.trace_dir.empty();
  const bool profiling = !options.profile_dir.empty();
  ObsAbortGuard obs_guard;
  if (tracing || profiling) {
    obs::TraceSession::start();
    obs_guard.trace_armed = true;
  }
  if (!options.series_dir.empty()) {
    obs::RoundSeries::start();
    obs_guard.series_armed = true;
  }
  std::optional<obs::MetricsSnapshot> metrics_before;
  if (options.collect_metrics)
    metrics_before = obs::MetricsRegistry::global().snapshot();

  // Stage/scenario wall times land in the wall_time report fields, which the
  // baseline differ compares only under a wide tolerance — they never feed
  // back into metrics or seeds.
  const obs::WallTimer timer;
  Plan plan = scenario.plan();

  ScenarioRun run;
  run.stages.reserve(plan.stages.size());
  const sweep::SweepRunner runner(options.sweep);
  for (Stage& stage : plan.stages) {
    OBS_SPAN_DYN([&] { return "scenario/" + scenario.id + ":" + stage.name; });
    const obs::WallTimer stage_timer;
    sweep::SweepResult result =
        runner.run(stage.grid, stage.metrics, stage.evaluate);
    run.stages.push_back(
        {stage.name, std::move(result), stage_timer.seconds()});
  }
  if (plan.render) plan.render(run, emitter);

  if (options.collect_metrics) {
    run.metrics =
        obs::MetricsRegistry::global().snapshot().delta_since(*metrics_before);
  }
  const double elapsed = timer.seconds();
  if (obs_guard.series_armed) {
    obs_guard.series_armed = false;
    try {
      obs::RoundSeries::stop_to_files(options.series_dir, scenario.id);
      // Artifact notices for profile/series go to stderr so stdout (tables,
      // BENCH docs) stays byte-identical with and without them.
      std::cerr << "[series] " << options.series_dir << "/SERIES_"
                << scenario.id << ".csv\n";
    } catch (const std::exception& error) {
      std::cerr << "[series] failed: " << error.what() << "\n";
    }
  }
  if (tracing || profiling) {
    obs_guard.trace_armed = false;
    const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();
    if (tracing) {
      const std::string path =
          options.trace_dir + "/TRACE_" + scenario.id + ".json";
      try {
        obs::TraceSession::write_file(path, events);
        emitter.text("[trace] " + path + "\n");
      } catch (const std::exception& error) {
        // Trace output is diagnostics, not results: report and carry on.
        std::cerr << "[trace] failed: " << error.what() << "\n";
      }
    }
    if (profiling) {
      try {
        obs::Profile::from_events(events).write_files(options.profile_dir,
                                                      scenario.id);
        std::cerr << "[profile] " << options.profile_dir << "/PROFILE_"
                  << scenario.id << ".json\n";
      } catch (const std::exception& error) {
        std::cerr << "[profile] failed: " << error.what() << "\n";
      }
    }
  }

  emitter.complete(run, elapsed);
  return elapsed;
}

}  // namespace p2pvod::scenario
