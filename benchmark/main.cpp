// p2pvod_benchmark: entry point of the repo benchmark (see README.md here).
//
//   p2pvod_benchmark --workload NAME [--seed S] [--seconds N]
//                    [--trace 0|1 | --traced] [--out DIR]
//   p2pvod_benchmark --smoke --out DIR
//   p2pvod_benchmark --compare DIR_A DIR_B
//
// A workload run prints `workload metric value unit` per metric, then, as its
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or the per-layer ones with --trace 1. Exit codes: 0 ok, 1 a check
// failed (or --compare found a metric worse or unresolved), 2 usage error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "benchmark.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace p2pvod;
using benchmark::Digest;
using benchmark::Metric;
using benchmark::RunOptions;
using benchmark::RunResult;
using util::json::Value;

constexpr int kUsageError = 2;
// Both paths are fixed at configure time: the digest files, and the
// BENCHMARK.json whose bounds --compare applies.
constexpr const char* kExpectedDir = P2PVOD_BENCHMARK_EXPECTED_DIR;
constexpr const char* kBenchmarkJson = P2PVOD_BENCHMARK_JSON;

Value digest_json(const Digest& digest) {
  Value out{Value::Object{}};
  for (const auto& [name, value] : digest) out.set(name, value);
  return out;
}

Value metrics_json(const std::vector<Metric>& metrics, bool with_base) {
  Value out{Value::Object{}};
  for (const Metric& metric : metrics) {
    Value entry{Value::Object{}};
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    if (with_base && !metric.base.empty()) entry.set("base", metric.base);
    out.set(metric.name, std::move(entry));
  }
  return out;
}

std::string expected_path(const RunOptions& options) {
  return std::string(kExpectedDir) + "/" + options.workload +
         (options.smoke ? ".smoke" : "") + ".seed" +
         std::to_string(options.seed) + ".json";
}

/// Mismatches between `actual` and the `key` block of an expected file,
/// one line each.
std::string mismatches(const Value& expected, const char* key,
                       const Digest& actual) {
  std::string out;
  for (const auto& [name, value] : expected.at(key).as_object()) {
    const auto it =
        std::find_if(actual.begin(), actual.end(),
                     [&](const auto& entry) { return entry.first == name; });
    if (it != actual.end() &&
        static_cast<double>(it->second) == value.as_number())
      continue;
    out += std::string(key) + " " + name + ": expected " + value.dump() +
           ", got " +
           (it == actual.end() ? "nothing" : std::to_string(it->second)) +
           "\n";
  }
  return out;
}

/// Compare the run's digest with the expected file for its seed, when one
/// exists (seeds 1 and 2; other seeds run the invariants only). A digest
/// mismatch fails the run; work-count drift is only reported.
void check_expected(const RunOptions& options, RunResult& result) {
  const std::string path = expected_path(options);
  if (!std::filesystem::exists(path)) return;
  const Value expected = util::json::parse_file(path);
  if (const std::string wrong = mismatches(expected, "digest", result.digest);
      !wrong.empty())
    result.fail("outputs differ from " + path + ":\n" +
                wrong.substr(0, wrong.size() - 1));
  if (const std::string drift = mismatches(expected, "work", result.work);
      !drift.empty())
    std::fprintf(stderr, "note: work counts moved (not checked):\n%s",
                 drift.c_str());
}

Value result_document(const RunOptions& options, const RunResult& result) {
  Value doc{Value::Object{}};
  doc.set("workload", options.workload);
  doc.set("seed", options.seed);
  doc.set("traced", options.traced);
  doc.set("smoke", options.smoke);
  doc.set("seconds", options.seconds);
  doc.set("sizes", result.sizes);
  doc.set("correct", result.failed == 0);
  doc.set("attempted", result.attempted);
  doc.set("failed", result.failed);
  Value::Array failures;
  for (const std::string& what : result.failures) failures.emplace_back(what);
  doc.set("failures", std::move(failures));
  doc.set("digest", digest_json(result.digest));
  doc.set("work", digest_json(result.work));
  if (options.traced) {
    doc.set("per_layer", metrics_json(result.per_layer, true));
  } else {
    doc.set("end_to_end", metrics_json(result.end_to_end, true));
  }
  return doc;
}

std::string document_path(const std::string& dir, const RunOptions& options) {
  return dir + "/" + options.workload + (options.smoke ? ".smoke" : "") +
         (options.traced ? ".traced" : "") + ".json";
}

RunResult run_checked(const RunOptions& options) {
  RunResult result = benchmark::run_workload(options);
  check_expected(options, result);
  for (const std::string& what : result.failures)
    std::fprintf(stderr, "%s: FAILED: %s\n", options.workload.c_str(),
                 what.c_str());
  return result;
}

void write_document(const std::string& dir, const RunOptions& options,
                    const RunResult& result) {
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  util::json::write_file(document_path(dir, options),
                         result_document(options, result));
}

int run_one(const RunOptions& options, const std::string& out_dir) {
  const RunResult result = run_checked(options);
  write_document(out_dir, options, result);
  const auto& metrics = options.traced ? result.per_layer : result.end_to_end;
  for (const Metric& metric : metrics)
    std::printf("%s %s %.6g %s\n", options.workload.c_str(),
                metric.name.c_str(), metric.value, metric.unit.c_str());
  Value last{Value::Object{}};
  last.set("correct", result.failed == 0);
  last.set("attempted", result.attempted);
  last.set("failed", result.failed);
  last.set("metrics", metrics_json(metrics, false));
  std::printf("%s\n", last.dump().c_str());
  return result.failed == 0 ? 0 : 1;
}

/// Self-test at shrunken sizes: every workload untraced and traced, each
/// document written and parsed back, digests equal between the two runs and
/// to the expected smoke digests.
int run_smoke(const std::string& out_dir) {
  bool all_ok = true;
  for (const std::string& workload : benchmark::workload_names()) {
    RunOptions options;
    options.workload = workload;
    options.smoke = true;
    bool ok = std::filesystem::exists(expected_path(options));
    if (!ok)
      std::fprintf(stderr, "%s: no expected smoke digest at %s\n",
                   workload.c_str(), expected_path(options).c_str());
    Digest digests[2];
    for (const bool traced : {false, true}) {
      options.traced = traced;
      const RunResult result = run_checked(options);
      write_document(out_dir, options, result);
      const Value parsed =
          util::json::parse_file(document_path(out_dir, options));
      const bool parsed_ok =
          parsed.at("digest").dump() == digest_json(result.digest).dump() &&
          parsed.at(traced ? "per_layer" : "end_to_end").is_object();
      if (!parsed_ok)
        std::fprintf(stderr, "%s: document did not round-trip\n",
                     workload.c_str());
      ok = ok && parsed_ok && result.failed == 0;
      digests[traced ? 1 : 0] = result.digest;
    }
    const bool same = digests[0] == digests[1];
    if (!same)
      std::fprintf(stderr, "%s: traced and untraced digests differ\n",
                   workload.c_str());
    ok = ok && same;
    all_ok = all_ok && ok;
    std::printf("%s smoke %s\n", workload.c_str(), ok ? "ok" : "FAILED");
  }
  return all_ok ? 0 : 1;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "p2pvod_benchmark: %s\n"
               "usage: p2pvod_benchmark --workload NAME [--seed S] "
               "[--seconds N] [--trace 0|1 | --traced] [--out DIR]\n"
               "       p2pvod_benchmark --smoke --out DIR\n"
               "       p2pvod_benchmark --compare DIR_A DIR_B\n",
               why.c_str());
  return kUsageError;
}

int run(int argc, char** argv) {
  const util::ArgParser args(argc, argv, {"traced", "smoke"});
  const std::vector<std::string> known = {
      "workload", "seed", "seconds", "trace",
      "traced",   "out",  "smoke",   "compare"};
  for (const std::string& name : args.option_names()) {
    if (std::find(known.begin(), known.end(), name) == known.end())
      return usage("unknown option --" + name);
  }
  const std::string out_dir = args.get_string("out", "");

  if (args.has("compare")) {
    if (args.positional().size() != 1)
      return usage("--compare takes two directories");
    return benchmark::compare_runs(args.get_string("compare", ""),
                                   args.positional()[0], kBenchmarkJson);
  }
  if (!args.positional().empty())
    return usage("unexpected argument " + args.positional()[0]);
  if (args.has("smoke")) {
    if (out_dir.empty()) return usage("--smoke needs --out DIR");
    return run_smoke(out_dir);
  }

  RunOptions options;
  options.workload = args.get_string("workload", "");
  const auto& names = benchmark::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end())
    return usage("--workload must be one of sparse_5k, churn_5k, zone_caps, "
                 "threshold_trials");
  options.seed = args.get_seed("seed", options.seed);
  options.seconds = args.get_double("seconds", options.seconds);
  if (!(options.seconds > 0.0 && options.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");
  const std::string trace = args.get_string("trace", "0");
  if (trace != "0" && trace != "1") return usage("--trace must be 0 or 1");
  options.traced = trace == "1" || args.has("traced");
  return run_one(options, out_dir);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2pvod_benchmark: %s\n", e.what());
    return 1;
  }
}
