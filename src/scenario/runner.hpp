// Executes a Scenario: stages on the SweepRunner, results through the sinks.
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/sink.hpp"
#include "sweep/sweep_runner.hpp"

namespace p2pvod::scenario {

struct RunOptions {
  /// Pool/seed for the stage sweeps. options.sweep.pool == nullptr selects
  /// the global pool (P2PVOD_THREADS). Point functions that pin their own
  /// seeds (every paper figure does, to reproduce published data) ignore the
  /// base seed.
  sweep::SweepOptions sweep;
  /// Snapshot the obs::MetricsRegistry around the run and attach the delta
  /// to ScenarioRun::metrics (and thence BENCH_<id>.json).
  bool collect_metrics = false;
  /// When non-empty, record a TraceSession for the run and write
  /// <trace_dir>/TRACE_<id>.json in Chrome trace-event format.
  std::string trace_dir;
  /// When non-empty, aggregate the run's spans into a call-tree profile and
  /// write <profile_dir>/PROFILE_<id>.{json,collapsed}. Shares one
  /// TraceSession with trace_dir when both are set.
  std::string profile_dir;
  /// When non-empty, record per-round metric deltas (obs::RoundSeries) and
  /// write <series_dir>/SERIES_<id>.{csv,json}.
  std::string series_dir;
};

/// Apply the observability environment knobs to `options`: P2PVOD_METRICS
/// (set and != "0" enables collect_metrics), and the artifact directories
/// P2PVOD_TRACE / P2PVOD_PROFILE / P2PVOD_SERIES. Command-line flags should
/// be applied after this so they win over the environment.
void apply_obs_env(RunOptions& options);

/// Run one scenario: banner event, plan(), each stage on the SweepRunner,
/// render, completion event. Returns the wall time in seconds (covering
/// plan + stages + render). Exceptions from stage evaluation propagate.
double run_scenario(const Scenario& scenario,
                    const std::vector<ResultSink*>& sinks,
                    const RunOptions& options = {});

}  // namespace p2pvod::scenario
