// p2pvod_perfgate — statistical wall-time regression gate.
//
//   p2pvod_perfgate --trajectory baselines/PERF_trajectory.json
//       [--label STR] [--append] [--out PATH] [--warn-only]
//       [--rel-tol X] [--mad-factor X] [--abs-slack X]
//       <BENCH_<id>.json | dir>...
//
// Positional arguments are BENCH result documents from k repeated
// `p2pvod_bench` runs (a directory contributes every BENCH_*.json inside
// it, sorted). The k samples per scenario/stage are reduced to median + MAD
// (obs::WallStats) and compared against the most recent same-scale point of
// the committed trajectory history; the new point can be appended with
// --append (written to --out, default the --trajectory path itself — CI
// uploads the appended file as an artifact, a human commits it).
//
// Exit codes: 0 all comparisons within tolerance (or --warn-only), 1 at
// least one regression beyond tolerance, 2 usage or input error. Output is
// deterministic — byte-identical across repeated invocations on identical
// input (no clock reads; put timestamps in --label if you want them).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trajectory.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using p2pvod::obs::GateFinding;
using p2pvod::obs::GateOptions;
using p2pvod::obs::Trajectory;
using p2pvod::obs::TrajectoryPoint;

void print_usage() {
  std::cout
      << "usage: p2pvod_perfgate --trajectory PATH [options] <bench|dir>...\n"
         "  --trajectory PATH  committed trajectory history (created by\n"
         "                     --append when it does not exist yet)\n"
         "  --label STR        label for the new point (default: unlabeled)\n"
         "  --append           append the new point and write the history\n"
         "  --out PATH         where --append writes (default: --trajectory)\n"
         "  --rel-tol X        relative band, fraction of ref median (0.25)\n"
         "  --mad-factor X     noise band, multiples of ref+cand MAD (4)\n"
         "  --abs-slack X      absolute band floor in seconds (0.05)\n"
         "  --warn-only        report regressions but exit 0\n";
}

std::string seconds(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4fs", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const p2pvod::util::ArgParser args(argc, argv,
                                     {"append", "warn-only", "help"});
  if (args.has("help")) {
    print_usage();
    return 0;
  }
  for (const std::string& name : args.option_names()) {
    static const std::vector<std::string> known = {
        "trajectory", "label",      "append",    "out",
        "rel-tol",    "mad-factor", "abs-slack", "warn-only"};
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "p2pvod_perfgate: unknown option --" << name
                << " (see --help)\n";
      return 2;
    }
  }
  const std::string trajectory_path = args.get_string("trajectory", "");
  if (trajectory_path.empty()) {
    std::cerr << "p2pvod_perfgate: --trajectory is required (see --help)\n";
    return 2;
  }
  if (args.positional().empty()) {
    std::cerr << "p2pvod_perfgate: no BENCH inputs (see --help)\n";
    return 2;
  }

  // Expand positionals: a directory contributes its BENCH_*.json, sorted so
  // the reduction sees a canonical sample order regardless of readdir order.
  std::vector<std::string> files;
  for (const std::string& input : args.positional()) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      std::vector<std::string> entries;
      for (const auto& entry : std::filesystem::directory_iterator(input)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json")
          entries.push_back(entry.path().string());
      }
      std::sort(entries.begin(), entries.end());
      if (entries.empty()) {
        std::cerr << "p2pvod_perfgate: no BENCH_*.json in " << input << "\n";
        return 2;
      }
      files.insert(files.end(), entries.begin(), entries.end());
    } else {
      files.push_back(input);
    }
  }

  GateOptions options;
  options.rel_tol = args.get_double("rel-tol", options.rel_tol);
  options.mad_factor = args.get_double("mad-factor", options.mad_factor);
  options.abs_slack = args.get_double("abs-slack", options.abs_slack);

  try {
    std::vector<p2pvod::util::json::Value> documents;
    documents.reserve(files.size());
    for (const std::string& path : files)
      documents.push_back(p2pvod::util::json::parse_file(path));

    const TrajectoryPoint candidate = p2pvod::obs::reduce_bench_runs(
        documents, args.get_string("label", "unlabeled"));

    Trajectory history;
    if (std::filesystem::exists(trajectory_path)) {
      history = Trajectory::from_json(
          p2pvod::util::json::parse_file(trajectory_path));
    }

    const std::vector<GateFinding> findings =
        gate_compare(candidate, history, options);
    if (findings.empty()) {
      std::cout << "[perfgate] no reference point at scale "
                << candidate.scale << " in " << trajectory_path
                << " — nothing to gate (" << candidate.scenarios.size()
                << " scenario(s) measured)\n";
    }
    std::size_t regressions = 0;
    for (const GateFinding& finding : findings) {
      const std::string what =
          finding.stage.empty() ? finding.scenario + " total"
                                : finding.scenario + ":" + finding.stage;
      if (finding.regression) ++regressions;
      std::cout << "[perfgate] " << what << ": median "
                << seconds(finding.candidate_median) << " vs baseline "
                << seconds(finding.reference_median) << " (limit "
                << seconds(finding.limit) << ") — "
                << (finding.regression ? "REGRESSION" : "ok") << "\n";
    }

    if (args.has("append")) {
      history.points.push_back(candidate);
      const std::string out_path = args.get_string("out", trajectory_path);
      const std::filesystem::path out_file(out_path);
      if (out_file.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(out_file.parent_path(), ec);
      }
      p2pvod::util::json::write_file(out_path, history.to_json());
      std::cout << "[perfgate] appended point \"" << candidate.label
                << "\" (" << history.points.size() << " total) to "
                << out_path << "\n";
    }

    if (regressions > 0) {
      std::cout << "[perfgate] " << regressions
                << " regression(s) beyond tolerance\n";
      return args.has("warn-only") ? 0 : 1;
    }
    std::cout << "[perfgate] OK — " << findings.size()
              << " comparison(s) within tolerance\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "p2pvod_perfgate: " << error.what() << "\n";
    return 2;
  }
}
