// The repo benchmark: four closed-loop workloads timed from outside the
// library through its public calls (see README.md in this directory).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace p2pvod::benchmark {

/// One reported number. `base` names what a ratio or per-unit rate is taken
/// over (e.g. "rounds=100"); empty for plain measurements.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
};

/// Named integer outputs of a run, in a fixed order.
using Digest = std::vector<std::pair<std::string, std::int64_t>>;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget: it sets how many waves a round workload runs, or
  /// how many trials threshold_trials runs per pass, from the workload's
  /// nominal speed. What one wave computes does not depend on it.
  double seconds = 20.0;
  /// Add a traced pass that yields the per-layer metrics.
  bool traced = false;
  /// Shrunken sizes for the self-test.
  bool smoke = false;
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< rounds or trials executed
  std::uint64_t failed = 0;     ///< operations that threw or failed a check
  std::vector<std::string> failures;  ///< what failed, first few only
  /// Outputs a correct implementation must reproduce for a given seed.
  Digest digest;
  /// Work counts of the current implementation, reported beside the digest
  /// but not checked: an optimisation is expected to move them.
  Digest work;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< traced runs only
  util::json::Value sizes{util::json::Value::Object{}};

  void fail(std::string what);
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload end to end. Throws std::invalid_argument for an unknown
/// workload name.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

/// Compare two directories of result documents (k runs per side) metric by
/// metric, using the bounds in `benchmark_json`. Returns the process exit
/// code: 0 when nothing is worse or unresolved, 1 otherwise.
int compare_runs(const std::string& dir_a, const std::string& dir_b,
                 const std::string& benchmark_json);

}  // namespace p2pvod::benchmark
