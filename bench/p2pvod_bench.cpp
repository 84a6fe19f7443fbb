// p2pvod_bench — unified driver for the paper's figure/table scenarios.
//
//   p2pvod_bench --list                      enumerate registered scenarios
//   p2pvod_bench threshold churn             run selected scenarios
//   p2pvod_bench --all                       run every scenario
//
// Options (every --flag also reads env var P2PVOD_<FLAG>):
//   --scale X        trial/size scale factor (exports P2PVOD_SCALE)
//   --threads N      thread-pool size (exports P2PVOD_THREADS; 0 = all cores)
//   --zones N        zone count for the topology scenarios E14/E15/E17
//                    (exports P2PVOD_ZONES)
//   --seed S         sweep base seed (figures pin their own seeds; this only
//                    affects scenarios that consume the derived per-point seed)
//   --json-dir DIR   where BENCH_<id>.json files go (default ".")
//   --no-json        skip the JSON result files
//   --csv-dir DIR    also write per-figure CSV tables
//   --no-tables      suppress the human stdout tables
//   --baseline PATH  diff results against PATH (a BENCH_<id>.json file for a
//                    single scenario, or a directory of them); exit 1 on any
//                    metric/wall-time regression beyond tolerance
//   --rtol X         relative metric tolerance     (default 1e-6)
//   --atol X         absolute metric tolerance     (default 1e-9)
//   --wall-factor X  wall-time budget multiplier   (default 3; 0 disables)
//   --wall-slack X   wall-time absolute slack, sec (default 0.25)
//
// Scenario stdout (tables, commentary) is the only thing written to stdout;
// progress and diagnostics go to stderr so output stays diffable.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <optional>
#include <string>
#include <vector>

#include "scenario/baseline.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/sink.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace p2pvod;

void print_usage() {
  std::cout <<
      "usage: p2pvod_bench [--list] [--all | <scenario id>...] [options]\n"
      "\n"
      "options:\n"
      "  --list           list registered scenarios and exit\n"
      "  --all            run every registered scenario\n"
      "  --scale X        trial/size scale factor (default: P2PVOD_SCALE or 1)\n"
      "  --threads N      thread-pool size (default: P2PVOD_THREADS or cores)\n"
      "  --zones N        zone count for the E14/E15/E17 topology scenarios\n"
      "                   (default: P2PVOD_ZONES; 4 for E14/E15, 12 for E17)\n"
      "  --seed S         sweep base seed (figure scenarios pin their own)\n"
      "  --json-dir DIR   directory for BENCH_<id>.json results (default .)\n"
      "  --no-json        do not write JSON result files\n"
      "  --csv-dir DIR    also write per-figure CSV tables\n"
      "  --no-tables      suppress human-readable stdout tables\n"
      "  --baseline PATH  diff against stored BENCH_<id>.json baseline(s);\n"
      "                   exit 1 on regressions beyond tolerance\n"
      "  --rtol X         relative metric tolerance (default 1e-6)\n"
      "  --atol X         absolute metric tolerance (default 1e-9)\n"
      "  --wall-factor X  wall-time budget = baseline*X + slack (default 3,\n"
      "                   0 disables the wall-time check)\n"
      "  --wall-slack X   wall-time absolute slack in seconds (default 0.25)\n"
      "  --metrics        attach the obs metric deltas to BENCH_<id>.json\n"
      "                   (also enabled by P2PVOD_METRICS=1)\n"
      "  --trace DIR      record span traces; writes DIR/TRACE_<id>.json in\n"
      "                   Chrome trace-event format (also P2PVOD_TRACE=DIR)\n"
      "  --profile DIR    aggregate spans into a call-tree profile; writes\n"
      "                   DIR/PROFILE_<id>.json and .collapsed (flamegraph\n"
      "                   collapsed-stack text; also P2PVOD_PROFILE=DIR)\n"
      "  --series DIR     record per-round metric deltas; writes\n"
      "                   DIR/SERIES_<id>.csv and .json (also\n"
      "                   P2PVOD_SERIES=DIR)\n"
      "  --help           this text\n";
}

bool is_directory(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_directory(path, ec);
}

}  // namespace

int main(int argc, char** argv) {
  // Flags that never take a value: a scenario id after "--no-json" must stay
  // positional instead of being swallowed as the flag's value.
  util::ArgParser args(argc, argv,
                       {"list", "all", "no-json", "no-tables", "metrics",
                        "help"});
  if (args.has("help")) {
    print_usage();
    return 0;
  }

  // Reject misspelled options: "--basline dir" must not silently skip the
  // regression diff it was meant to run.
  static const std::vector<std::string> kKnownOptions = {
      "all",       "atol",     "baseline", "csv-dir",    "help",
      "json-dir",  "list",     "metrics",  "no-json",    "no-tables",
      "profile",   "rtol",     "scale",    "seed",       "series",
      "threads",   "trace",    "wall-factor", "wall-slack", "zones"};
  for (const std::string& name : args.option_names()) {
    if (std::find(kKnownOptions.begin(), kKnownOptions.end(), name) ==
        kKnownOptions.end()) {
      std::cerr << "p2pvod_bench: unknown option '--" << name
                << "' (see --help)\n";
      return 2;
    }
  }

  // Export --scale / --threads so util::bench_scale() and the global pool
  // (both read environment variables, possibly lazily) observe them. Must
  // happen before any scenario or pool is touched. Validate first: the env
  // readers silently fall back on garbage, which would turn a typo into a
  // full-scale run.
  try {
    if (args.get_double("scale", 1.0) <= 0.0) {
      throw std::invalid_argument("option --scale: must be > 0");
    }
    (void)args.get_int("threads", 0);
    if (args.get_int("zones", 1) <= 0) {
      throw std::invalid_argument("option --zones: must be > 0");
    }
  } catch (const std::exception& error) {
    std::cerr << "p2pvod_bench: " << error.what() << "\n";
    return 2;
  }
  if (const auto scale = args.get("scale"); scale.has_value()) {
    setenv("P2PVOD_SCALE", scale->c_str(), 1);
  }
  if (const auto threads = args.get("threads"); threads.has_value()) {
    setenv("P2PVOD_THREADS", threads->c_str(), 1);
  }
  if (const auto zones = args.get("zones"); zones.has_value()) {
    setenv("P2PVOD_ZONES", zones->c_str(), 1);
  }

  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::builtin();

  if (args.get_bool("list", false)) {
    util::Table table("registered scenarios");
    table.set_header({"id", "figure", "claim"});
    for (const scenario::Scenario* entry : registry.list()) {
      table.add_row({entry->id, entry->figure, entry->claim});
    }
    table.print(std::cout);
    return 0;
  }

  std::vector<const scenario::Scenario*> selected;
  if (args.get_bool("all", false)) {
    selected = registry.list();
  } else {
    for (const std::string& id : args.positional()) {
      const scenario::Scenario* entry = registry.find(id);
      if (entry == nullptr) {
        std::cerr << "p2pvod_bench: unknown scenario '" << id << "'\n"
                  << "known scenarios:";
        for (const scenario::Scenario* known : registry.list()) {
          std::cerr << ' ' << known->id;
        }
        std::cerr << "\n";
        return 2;
      }
      selected.push_back(entry);
    }
  }
  if (selected.empty()) {
    print_usage();
    return 2;
  }

  // Assemble the sink stack.
  scenario::TableSink table_sink(std::cout);
  std::optional<scenario::CsvSink> csv_sink;
  std::optional<scenario::JsonSink> json_sink;
  scenario::CaptureSink capture_sink;

  std::vector<scenario::ResultSink*> sinks;
  if (!args.get_bool("no-tables", false)) sinks.push_back(&table_sink);
  if (const auto dir = args.get("csv-dir"); dir.has_value()) {
    // Notices to stderr: stdout carries scenario tables only.
    csv_sink.emplace(*dir, &std::cerr);
    sinks.push_back(&*csv_sink);
  }
  if (!args.get_bool("no-json", false)) {
    json_sink.emplace(args.get_string("json-dir", "."), &std::cerr);
    sinks.push_back(&*json_sink);
  }
  const auto baseline_path = args.get("baseline");
  if (baseline_path.has_value()) sinks.push_back(&capture_sink);

  scenario::BaselineOptions tolerance;
  scenario::RunOptions run_options;
  // Environment knobs first, command-line flags second so flags win.
  scenario::apply_obs_env(run_options);
  if (args.get_bool("metrics", false)) run_options.collect_metrics = true;
  if (const auto trace_dir = args.get("trace"); trace_dir.has_value()) {
    run_options.trace_dir = *trace_dir;
  }
  if (const auto profile_dir = args.get("profile"); profile_dir.has_value()) {
    run_options.profile_dir = *profile_dir;
  }
  if (const auto series_dir = args.get("series"); series_dir.has_value()) {
    run_options.series_dir = *series_dir;
  }
  try {
    tolerance.rtol = args.get_double("rtol", tolerance.rtol);
    tolerance.atol = args.get_double("atol", tolerance.atol);
    tolerance.wall_factor =
        args.get_double("wall-factor", tolerance.wall_factor);
    tolerance.wall_slack = args.get_double("wall-slack", tolerance.wall_slack);
    run_options.sweep.base_seed = args.get_seed("seed", 0x5eedULL);
  } catch (const std::exception& error) {
    std::cerr << "p2pvod_bench: " << error.what() << "\n";
    return 2;
  }
  const bool baseline_is_dir =
      baseline_path.has_value() && is_directory(*baseline_path);
  if (baseline_path.has_value() && !baseline_is_dir && selected.size() > 1) {
    std::cerr << "p2pvod_bench: --baseline must be a directory of "
                 "BENCH_<id>.json files when running several scenarios\n";
    return 2;
  }

  std::vector<std::string> violations;
  for (const scenario::Scenario* entry : selected) {
    double wall = 0.0;
    try {
      wall = scenario::run_scenario(*entry, sinks, run_options);
    } catch (const std::exception& error) {
      std::cerr << "p2pvod_bench: scenario '" << entry->id
                << "' failed: " << error.what() << "\n";
      return 1;
    }
    std::fprintf(stderr, "[bench] %-16s %.3fs\n", entry->id.c_str(), wall);

    if (baseline_path.has_value()) {
      const std::string file =
          baseline_is_dir ? *baseline_path + "/BENCH_" + entry->id + ".json"
                          : *baseline_path;
      const auto& document = capture_sink.document();
      if (!document.has_value()) {
        violations.push_back(entry->id + ": no result document captured");
        continue;
      }
      for (std::string& message :
           scenario::diff_against_baseline_file(*document, file, tolerance)) {
        violations.push_back(std::move(message));
      }
    }
  }

  // Requested artifacts that failed to write are a failure: a perf job whose
  // JSON silently vanished would upload nothing and stay green.
  const std::size_t artifact_failures =
      (json_sink ? json_sink->failure_count() : 0) +
      (csv_sink ? csv_sink->failure_count() : 0);
  if (artifact_failures > 0) {
    std::cerr << "p2pvod_bench: " << artifact_failures
              << " result artifact(s) could not be written\n";
    return 1;
  }

  if (!violations.empty()) {
    std::cerr << "\n[baseline] " << violations.size()
              << " regression(s) beyond tolerance:\n";
    for (const std::string& message : violations) {
      std::cerr << "  - " << message << "\n";
    }
    return 1;
  }
  if (baseline_path.has_value()) {
    std::cerr << "[baseline] all " << selected.size()
              << " scenario(s) within tolerance of " << *baseline_path << "\n";
  }
  return 0;
}
