// quickstart — the 60-second tour of the p2pvod library.
//
// Builds a homogeneous (n, u, d)-video system, lets Theorem 1 pick the
// protocol parameters (c stripes, k replicas, catalog size m), runs a
// Zipf-popularity audience against it, and prints the run report.
//
//   ./quickstart [--n 200] [--u 1.5] [--d 4] [--mu 1.3] [--rounds 120]
#include <cstdlib>
#include <exception>
#include <iostream>

#include "core/planner.hpp"
#include "core/vod_system.hpp"
#include "util/cli.hpp"
#include "workload/limiter.hpp"
#include "workload/zipf.hpp"

int main(int argc, char** argv) try {
  using namespace p2pvod;
  const util::ArgParser args(argc, argv);

  core::SystemConfig config;
  config.n = static_cast<std::uint32_t>(args.get_int("n", 200));
  config.u = args.get_double("u", 1.5);
  config.d = args.get_double("d", 4.0);
  config.mu = args.get_double("mu", 1.3);
  config.duration = args.get_int("duration", 24);
  config.seed = args.get_seed("seed", 0xC0FFEE);
  // Theorem 1's k is sized for worst-case adversaries at asymptotic n; for a
  // quickstart-sized n we let the empirical planner pick k instead.
  const core::CatalogPlanner planner(config.n, config.u, config.d, config.mu,
                                     config.duration);
  const auto theory = planner.bounds();
  std::cout << "Theorem 1 prescription: " << theory.describe() << "\n";

  config.c = theory.valid ? theory.c : 4;
  const auto plan = planner.plan(core::PlanMode::kCalibrated, /*trials=*/4,
                                 config.seed);
  if (!plan.feasible) {
    std::cerr << "no feasible plan: " << plan.notes << "\n";
    return EXIT_FAILURE;
  }
  config.k = plan.k;
  std::cout << "Calibrated plan: c=" << config.c << " k=" << config.k
            << " -> catalog m=" << plan.m << " videos ("
            << plan.notes << ")\n";

  const auto system = core::VodSystem::build(config);
  std::cout << "System: " << system.describe() << "\n\n";

  workload::ZipfDemand audience(system.catalog().video_count(),
                                /*alpha=*/0.8, /*demand prob=*/0.05,
                                config.seed ^ 0xA5A5);
  workload::GrowthLimiter limited(audience, config.mu);
  const auto rounds = args.get_int("rounds", 120);
  const auto report = system.run(limited, rounds);

  std::cout << "Run: " << report.summary() << "\n";
  std::cout << "  continuity      " << report.continuity() << "\n";
  std::cout << "  startup p50/max " << report.startup_delay.percentile(0.5)
            << "/" << report.startup_delay.max() << " rounds\n";
  std::cout << "  mean utilization " << report.upload_utilization.mean()
            << "\n";
  return report.success ? EXIT_SUCCESS : EXIT_FAILURE;
} catch (const std::exception& error) {
  // A bad parameter (NaN, infinite, or too large to count in 32 bits)
  // throws with a message naming it.
  std::cerr << "quickstart: " << error.what() << "\n";
  return EXIT_FAILURE;
}
