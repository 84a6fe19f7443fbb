// --compare: end-to-end metrics of two sets of runs, workload by workload.
//
// With B the change and A the parent, a verdict is "worse" when B's median
// is worse than A's by more than the metric's bound; "unresolved" when either
// side's quartile spread (as a share of its median) is wider than the bound,
// unless every B run beats (or loses to) every A run; "better" when B wins at
// least nine tenths of the run pairs and the medians differ by more than A's
// quartile spread; otherwise "same".
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "benchmark.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace p2pvod::benchmark {

namespace {

struct Bound {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;
};

/// values[workload][metric], one entry per run, in file-path order.
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

Runs load_runs(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  Runs runs;
  for (const auto& file : files) {
    const util::json::Value doc = util::json::parse_file(file.string());
    const util::json::Value* workload = doc.find("workload");
    const util::json::Value* metrics = doc.find("end_to_end");
    const util::json::Value* smoke = doc.find("smoke");
    // Traced and smoke runs carry no comparable end-to-end numbers.
    if (workload == nullptr || metrics == nullptr ||
        (smoke != nullptr && smoke->as_bool()))
      continue;
    for (const auto& [name, metric] : metrics->as_object())
      runs[workload->as_string()][name].push_back(
          metric.at("value").as_number());
  }
  return runs;
}

std::vector<Bound> load_bounds(const std::string& path) {
  std::vector<Bound> bounds;
  const util::json::Value doc = util::json::parse_file(path);
  for (const util::json::Value& entry : doc.at("end_to_end").as_array()) {
    bounds.push_back({entry.at("name").as_string(),
                      entry.at("unit").as_string(),
                      entry.at("better").as_string() == "lower",
                      entry.at("bound").as_number()});
  }
  return bounds;
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  explicit Quartiles(const std::vector<double>& values)
      : q1(util::quantile(values, 0.25)),
        median(util::quantile(values, 0.5)),
        q3(util::quantile(values, 0.75)) {}

  [[nodiscard]] double spread() const {
    return median == 0.0 ? 0.0 : (q3 - q1) / std::fabs(median);
  }
};

std::string verdict(const Bound& bound, const std::vector<double>& a,
                    const std::vector<double>& b, const Quartiles& qa,
                    const Quartiles& qb) {
  // Signed so that positive means B is better.
  const auto gain = [&](double from, double to) {
    return bound.lower_is_better ? from - to : to - from;
  };
  const double worst_a = bound.lower_is_better
                             ? *std::max_element(a.begin(), a.end())
                             : *std::min_element(a.begin(), a.end());
  const double best_a = bound.lower_is_better
                            ? *std::min_element(a.begin(), a.end())
                            : *std::max_element(a.begin(), a.end());
  const bool all_better = std::all_of(
      b.begin(), b.end(), [&](double v) { return gain(best_a, v) > 0.0; });
  const bool all_worse = std::all_of(
      b.begin(), b.end(), [&](double v) { return gain(worst_a, v) < 0.0; });

  if (std::max(qa.spread(), qb.spread()) > bound.bound) {
    if (all_better) return "better";
    if (all_worse) return "worse";
    return "unresolved";
  }
  if (-gain(qa.median, qb.median) > bound.bound * std::fabs(qa.median))
    return "worse";
  const std::size_t pairs = std::min(a.size(), b.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (gain(a[i], b[i]) > 0.0) ++wins;
  }
  if (pairs > 0 && wins * 10 >= pairs * 9 &&
      gain(qa.median, qb.median) > qa.q3 - qa.q1)
    return "better";
  return "same";
}

}  // namespace

int compare_runs(const std::string& dir_a, const std::string& dir_b,
                 const std::string& benchmark_json) {
  const std::vector<Bound> bounds = load_bounds(benchmark_json);
  const Runs a = load_runs(dir_a);
  const Runs b = load_runs(dir_b);

  std::printf("%-16s %-12s %-5s %9s %34s %34s %8s  %s\n", "workload",
              "metric", "unit", "bound", "A q1/median/q3", "B q1/median/q3",
              "change", "verdict");
  bool regressed = false;
  for (const std::string& workload : workload_names()) {
    const auto side_a = a.find(workload);
    const auto side_b = b.find(workload);
    if (side_a == a.end() && side_b == b.end()) continue;
    for (const Bound& bound : bounds) {
      const std::vector<double> none;
      const auto values = [&](const Runs::const_iterator& side,
                              const Runs& runs) -> const std::vector<double>& {
        if (side == runs.end()) return none;
        const auto it = side->second.find(bound.name);
        return it == side->second.end() ? none : it->second;
      };
      const std::vector<double>& va = values(side_a, a);
      const std::vector<double>& vb = values(side_b, b);
      if (va.empty() || vb.empty()) {
        std::printf("%-16s %-12s %-5s %8.0f%% %34s %34s %8s  %s\n",
                    workload.c_str(), bound.name.c_str(), bound.unit.c_str(),
                    bound.bound * 100.0, "-", "-", "-", "missing");
        regressed = true;
        continue;
      }
      const Quartiles qa(va);
      const Quartiles qb(vb);
      const std::string result = verdict(bound, va, vb, qa, qb);
      regressed = regressed || result == "worse" || result == "unresolved";
      char side_a_text[64];
      char side_b_text[64];
      std::snprintf(side_a_text, sizeof side_a_text, "%.4g/%.4g/%.4g", qa.q1,
                    qa.median, qa.q3);
      std::snprintf(side_b_text, sizeof side_b_text, "%.4g/%.4g/%.4g", qb.q1,
                    qb.median, qb.q3);
      const double change =
          qa.median == 0.0 ? 0.0 : (qb.median / qa.median - 1.0) * 100.0;
      std::printf(
          "%-16s %-12s %-5s %8.0f%% %34s %34s %+7.1f%%  %s (n=%zu/%zu)\n",
          workload.c_str(), bound.name.c_str(), bound.unit.c_str(),
          bound.bound * 100.0, side_a_text, side_b_text, change,
          result.c_str(), va.size(), vb.size());
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace p2pvod::benchmark
