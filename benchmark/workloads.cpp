// The four benchmark workloads. Everything is timed from outside the library
// through public calls; the library only ever receives generated inputs.
//
// Round workloads (sparse_5k, churn_5k, zone_caps) are one closed-loop
// client: a round is the churn calls, DemandGenerator::demands() and
// Simulator::step(), and the next round starts when step() returns.
// threshold_trials is Calibrator::run_trial over util::parallel_map, in
// batches, each batch starting when the previous one has returned.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "alloc/permutation.hpp"
#include "analysis/calibrate.hpp"
#include "benchmark.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "net/topology.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/zipf.hpp"

namespace p2pvod::benchmark {

void RunResult::fail(std::string what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

namespace {

// Every generator seed is a child of --seed.
constexpr std::uint64_t kAllocSeed = 1;
constexpr std::uint64_t kDemandSeed = 2;
constexpr std::uint64_t kTrialSeed = 3;
constexpr std::uint64_t kWarmupTrialSeed = 4;
constexpr std::uint64_t kWorldSeed = 5;

// Protocol shared by the round workloads (E16's): d = 4, c = 4, k = 6,
// T = 12, m = floor(d n / k).
constexpr double kStorage = 4.0;
constexpr std::uint32_t kStripes = 4;
constexpr std::uint32_t kReplicas = 6;
constexpr model::Round kDuration = 12;
constexpr model::Round kOutage = 4;

// No run has more threads busy at once than this, nor than the CPUs it may
// run on.
constexpr std::size_t kMaxThreads = 4;

// threshold_trials repeats its trials in kTrialPasses passes with identical
// inputs and reports each trial's fastest pass. The trials of a batch share
// every CPU, so one slow CPU slows some of them; with many short passes each
// trial is likely to meet a quiet CPU at least once. Each pass starts the
// pool kPoolStarts times, so setup_s is a median of many starts.
constexpr int kTrialPasses = 8;
constexpr int kPoolStarts = 16;

// Event ring per thread while tracing. The trace is folded after every
// round (or trial batch), so this only has to hold one of those.
constexpr std::size_t kTraceRing = std::size_t{1} << 18;

// Spans already in src/ whose self time is reported per layer. Time inside
// sim/solve_round that none of them covers is the unattributed share.
const std::vector<std::string> kLayerSpans = {
    "flow/min_cost",        "sim/build_candidates",   "sim/match",
    "flow/dinic",           "flow/csr_augment",       "sim/sparse_augment",
    "sim/sparse_rebuild",   "sim/sparse_expiry",      "sim/sparse_grant_patch",
    "sim/sparse_churn_patch", "flow/csr_compact",
};

struct RoundSpec {
  std::uint32_t n = 0;
  double u = 2.0;
  double alpha = 0.6;
  double demand_prob = 0.01;
  bool sparse = true;
  std::uint32_t zones = 0;     ///< 0: no topology
  std::uint32_t link_cap = 0;  ///< uniform inter-zone cap; 0: uncapped
  std::uint32_t churn_per_round = 0;
  model::Round warmup = 20;
  model::Round measured = 0;  ///< rounds timed after the warm-up
  /// Worlds built from distinct seeds, so no one seed's quirks set a metric.
  std::uint32_t worlds = 4;
  /// Seconds one wave (setup, warm-up and measured rounds) takes on the
  /// reference machine: a run has max(1, --seconds / (worlds * wave_s))
  /// waves per world, so it lasts about --seconds while its work depends on
  /// --seconds alone.
  double wave_s = 1.0;
};

struct TrialWorkload {
  analysis::TrialSpec spec;
  std::uint64_t horizon = 512;  ///< trials the digest covers
  std::uint64_t batch = 64;
  std::uint64_t warmup = 64;
  double nominal_per_s = 160.0;
};

RoundSpec round_spec(const std::string& name, bool smoke) {
  RoundSpec spec;
  if (name == "sparse_5k") {
    spec.n = 5000;
    spec.measured = 2000;
    spec.wave_s = 0.57;
  } else if (name == "churn_5k") {
    spec.n = 5000;
    spec.churn_per_round = 5;
    spec.measured = 1000;
    spec.wave_s = 1.0;
  } else if (name == "zone_caps") {
    spec.n = 64;
    spec.u = 1.5;
    spec.alpha = 0.8;
    spec.demand_prob = 0.45;
    spec.sparse = false;
    spec.zones = 12;
    spec.link_cap = 2;
    // Nearly every box starts a session in round 0, and the waves this sets
    // off take about 150 rounds to fade; 60 warm-up rounds remove the
    // largest of them.
    spec.warmup = 60;
    spec.measured = 100;
    // A world of 64 boxes has few, lumpy swarms, so round times vary more
    // from seed to seed than on the larger workloads: use more worlds.
    spec.worlds = 6;
    spec.wave_s = 0.7;
  } else {
    throw std::invalid_argument("unknown round workload: " + name);
  }
  if (smoke) {
    spec.n = spec.zones > 0 ? 32 : 1000;
    spec.warmup = 4;
    spec.measured = 12;
    spec.worlds = 2;
  }
  return spec;
}

TrialWorkload trial_workload(bool smoke) {
  TrialWorkload w;
  w.spec.n = 100;
  w.spec.u = 1.0;
  w.spec.d = 4.0;
  w.spec.mu = 1.3;
  w.spec.c = 4;
  w.spec.k = 4;
  w.spec.duration = 24;
  w.spec.rounds = 72;
  w.spec.scheme = alloc::Scheme::kPermutation;
  w.spec.strategy = sim::StrategyKind::kPreloading;
  w.spec.suite = analysis::WorkloadSuite::kFull;
  if (smoke) {
    w.horizon = 32;
    w.batch = 32;
    w.warmup = 8;
  }
  return w;
}

std::uint32_t catalog_size(std::uint32_t n) {
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(kStorage * n / kReplicas));
}

/// Seconds since `start_ns`; moves `start_ns` to now.
double lap_s(std::uint64_t& start_ns) {
  const std::uint64_t now = obs::monotonic_ns();
  const double seconds = static_cast<double>(now - start_ns) * 1e-9;
  start_ns = now;
  return seconds;
}

double ns_to_ms(double ns) { return ns * 1e-6; }

double median(std::vector<double> values) {
  return util::quantile(std::move(values), 0.5);
}

double ratio(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// The CPUs this process may run on, at most kMaxThreads of them; one
/// entry of -1 (run unpinned) when the affinity mask cannot be read.
std::vector<int> benchmark_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < kMaxThreads; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Keep the calling thread on `cpu` (no-op for -1). Best effort: a thread
/// that cannot be pinned still runs, only less steadily.
void pin_this_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

std::uint64_t counter(const obs::MetricsSnapshot& delta,
                      const std::string& name) {
  const auto it = delta.values.find(name);
  return it == delta.values.end() ? 0 : it->second.count;
}

std::string count_base(const char* what, double count) {
  return std::string(what) + "=" + std::to_string(std::llround(count));
}

/// Add `part`'s operations and failures to `whole`.
void absorb(RunResult& whole, const RunResult& part) {
  whole.attempted += part.attempted;
  whole.failed += part.failed - part.failures.size();
  for (const std::string& what : part.failures) whole.fail(what);
}

// --- tracing ----------------------------------------------------------------

/// Span self time folded across rounds (or trial batches).
struct SpanTotals {
  std::map<std::string, std::uint64_t> self_ns;  ///< by span name
  std::uint64_t solve_total_ns = 0;  ///< inclusive time of sim/solve_round
  /// Self time inside sim/solve_round that no kLayerSpans span covers.
  std::uint64_t solve_unlisted_ns = 0;

  void add(const obs::ProfileNode& node, bool inside_solve) {
    for (const auto& [name, child] : node.children) {
      self_ns[name] += child.self_ns;
      const bool solve = name == "sim/solve_round";
      if (solve) solve_total_ns += child.total_ns;
      const bool inside = inside_solve || solve;
      if (inside && std::find(kLayerSpans.begin(), kLayerSpans.end(), name) ==
                        kLayerSpans.end())
        solve_unlisted_ns += child.self_ns;
      add(child, inside);
    }
  }

  [[nodiscard]] std::uint64_t listed_ns() const {
    std::uint64_t total = 0;
    for (const std::string& span : kLayerSpans) {
      if (const auto it = self_ns.find(span); it != self_ns.end())
        total += it->second;
    }
    return total;
  }
};

void start_trace() {
  obs::TraceSession::start(obs::TraceSession::Options{kTraceRing});
}

/// Fold the events recorded since start_trace() and record anew.
void fold_trace(SpanTotals& totals, bool restart) {
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();
  totals.add(obs::Profile::from_events(events).merged(), false);
  if (restart) start_trace();
}

void add_span_metrics(std::vector<Metric>& out, const SpanTotals& spans,
                      double ops, const std::string& base) {
  for (const std::string& span : kLayerSpans) {
    std::string name = span;
    std::replace(name.begin(), name.end(), '/', '.');
    const auto it = spans.self_ns.find(span);
    const double ns =
        it == spans.self_ns.end() ? 0.0 : static_cast<double>(it->second);
    out.push_back({name + "_ms", ns_to_ms(ns) / ops, "ms", base});
  }
}

/// kStable counts shared by both workload kinds, normalised per simulated
/// round (the sim/rounds counter, so trials are comparable to rounds).
void add_count_metrics(std::vector<Metric>& out,
                       const obs::MetricsSnapshot& delta) {
  const auto get = [&](const char* name) {
    return static_cast<double>(counter(delta, name));
  };
  const std::uint64_t rounds = counter(delta, "sim/rounds");
  const std::string per_round = count_base("simulated_rounds", rounds);
  const auto rate = [&](const char* name) { return ratio(get(name), rounds); };

  const auto live = delta.values.find("sim/round_active_requests");
  const double live_sum =
      live == delta.values.end() ? 0.0 : static_cast<double>(live->second.sum);
  out.push_back({"sim.live_requests_mean", ratio(live_sum, rounds), "count",
                 per_round});
  const double offered =
      get("sim/demands_admitted") + get("sim/demands_rejected");
  out.push_back({"sim.admit_ratio", ratio(get("sim/demands_admitted"), offered),
                 "ratio", count_base("demands", offered)});
  const double chunks = get("sim/chunks_matched") + get("sim/chunks_unmatched");
  out.push_back({"sim.continuity", ratio(get("sim/chunks_matched"), chunks),
                 "ratio", count_base("request_rounds", chunks)});
  out.push_back({"flow.matcher_edges_per_round", rate("sim/matcher_edges"),
                 "count/round", per_round});
  out.push_back({"sim.sparse_expiry_events_per_round",
                 rate("sim/sparse_expiry_events"), "count/round", per_round});
  const double connections = get("sim/sparse_kept_connections") +
                             get("sim/sparse_new_connections");
  out.push_back({"sim.kept_connection_frac",
                 ratio(get("sim/sparse_kept_connections"), connections),
                 "ratio", count_base("sparse_connections", connections)});
  out.push_back({"flow.csr_augments_per_round", rate("flow/csr_augments"),
                 "count/round", per_round});
  out.push_back({"flow.csr_row_relocations", get("flow/csr_row_relocations"),
                 "count", per_round});
  out.push_back({"flow.csr_pool_compactions", get("flow/csr_pool_compactions"),
                 "count", per_round});
  out.push_back({"flow.min_cost_augmentations_per_round",
                 rate("flow/min_cost_augmentations"), "count/round",
                 per_round});
  out.push_back({"flow.min_cost_potential_updates_per_round",
                 rate("flow/min_cost_potential_updates"), "count/round",
                 per_round});
  out.push_back({"flow.link_cap_rejections_per_round",
                 rate("sim/link_cap_rejections"), "count/round", per_round});
  out.push_back({"flow.link_cap_rescue_ratio",
                 ratio(get("sim/link_cap_rescues"),
                       get("sim/link_cap_rejections")),
                 "ratio",
                 count_base("rejections", get("sim/link_cap_rejections"))});
  const double zoned =
      get("sim/intra_zone_chunks") + get("sim/cross_zone_chunks");
  out.push_back({"sim.cross_zone_share",
                 ratio(get("sim/cross_zone_chunks"), zoned), "ratio",
                 count_base("zoned_chunks", zoned)});
  out.push_back({"flow.dinic_phases_per_solve",
                 ratio(get("flow/dinic_phases"), get("flow/dinic_solves")),
                 "count",
                 count_base("dinic_solves", get("flow/dinic_solves"))});
}

// --- round workloads --------------------------------------------------------

struct SetupTimes {
  double model_s = 0.0;
  double alloc_s = 0.0;
  double topology_s = 0.0;
  double sim_s = 0.0;
  double workload_s = 0.0;

  [[nodiscard]] double total() const {
    return model_s + alloc_s + topology_s + sim_s + workload_s;
  }
};

/// Everything one simulation needs. The simulator keeps references into the
/// other members, so a World is never moved once built.
struct World {
  std::optional<model::Catalog> catalog;
  model::CapacityProfile profile;
  std::optional<alloc::Allocation> allocation;
  std::optional<net::Topology> topology;
  sim::PreloadingStrategy strategy;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<workload::ZipfDemand> audience;
};

/// Seed of world `index` of a run.
std::uint64_t world_seed(std::uint64_t seed, std::uint32_t index) {
  return util::child_seed(util::child_seed(seed, kWorldSeed), index);
}

std::unique_ptr<World> build_world(const RoundSpec& spec, std::uint64_t seed,
                                   SetupTimes& times) {
  auto world = std::make_unique<World>();
  std::uint64_t clock = obs::monotonic_ns();
  const std::uint32_t m = catalog_size(spec.n);
  world->catalog.emplace(m, kStripes, kDuration);
  world->profile =
      model::CapacityProfile::homogeneous(spec.n, spec.u, kStorage);
  times.model_s = lap_s(clock);

  util::Rng rng(util::child_seed(seed, kAllocSeed));
  world->allocation.emplace(alloc::PermutationAllocator().allocate(
      *world->catalog, world->profile, kReplicas, rng));
  times.alloc_s = lap_s(clock);

  sim::SimulatorOptions options;
  options.strict = false;
  options.sparse = spec.sparse;
  if (spec.zones > 0) {
    // Round-robin zones, free inside a zone, one transit unit across.
    world->topology.emplace(net::Topology::uniform(spec.n, spec.zones));
    world->topology->set_uniform_cost(0, 1);
    if (spec.link_cap > 0) world->topology->set_uniform_link_cap(spec.link_cap);
    options.topology = &*world->topology;
  }
  times.topology_s = lap_s(clock);

  world->simulator = std::make_unique<sim::Simulator>(
      *world->catalog, world->profile, *world->allocation, world->strategy,
      options);
  times.sim_s = lap_s(clock);

  world->audience = std::make_unique<workload::ZipfDemand>(
      m, spec.alpha, spec.demand_prob, util::child_seed(seed, kDemandSeed));
  times.workload_s = lap_s(clock);
  return world;
}

/// Cumulative RunReport fields the checks and digests read.
struct ReportMark {
  std::uint64_t served = 0;
  std::uint64_t stalled = 0;
  std::uint64_t edges = 0;
  std::uint64_t rows_built = 0;
  std::uint64_t row_patches = 0;
  std::uint64_t full_rebuilds = 0;
  std::uint64_t rejections = 0;
  std::uint64_t rescues = 0;
  std::uint64_t intra = 0;
  std::uint64_t cross = 0;
  std::uint64_t aborted = 0;
  std::int64_t zone_cost = 0;
  double live_sum = 0.0;

  static ReportMark of(const sim::RunReport& r) {
    ReportMark mark;
    mark.served = r.chunks_served;
    mark.stalled = r.chunks_stalled;
    mark.edges = r.matcher_edges;
    mark.rows_built = r.rows_built;
    mark.row_patches = r.row_patches;
    mark.full_rebuilds = r.sparse_full_rebuilds;
    mark.rejections = r.link_cap_rejections;
    mark.rescues = r.link_cap_rescues;
    mark.intra = r.intra_zone_chunks;
    mark.cross = r.cross_zone_chunks;
    mark.aborted = r.sessions_aborted;
    mark.zone_cost = r.zone_cost_total;
    mark.live_sum = r.active_requests.sum();
    return mark;
  }
};

/// Per-round invariants, checked from outside: a round serves at most its
/// live requests and at most the upload slots online, every live request is
/// either served or stalled, a rescue re-seats an earlier rejection, and
/// every served chunk is intra- or cross-zone exactly when zones exist.
/// Returns the first broken invariant, or an empty string.
std::string check_round(const ReportMark& before, const ReportMark& after,
                        std::uint64_t capacity, bool zoned) {
  const std::uint64_t served = after.served - before.served;
  const std::uint64_t stalled = after.stalled - before.stalled;
  const auto live = static_cast<std::uint64_t>(
      std::llround(after.live_sum - before.live_sum));
  const std::uint64_t zoned_chunks =
      (after.intra - before.intra) + (after.cross - before.cross);
  if (served > std::min(live, capacity))
    return "served " + std::to_string(served) + " > min(live " +
           std::to_string(live) + ", capacity " + std::to_string(capacity) +
           ")";
  if (served + stalled != live) return "served + stalled != live";
  if (after.rescues - before.rescues > after.rejections - before.rejections)
    return "rescues > rejections";
  if (zoned_chunks != (zoned ? served : 0)) return "intra + cross != served";
  return "";
}

struct RoundPass {
  std::vector<double> round_ms;  ///< measured rounds
  double churn_ns = 0.0;
  double demands_ns = 0.0;
  double step_ns = 0.0;
  std::uint64_t clean_rounds = 0;  ///< measured rounds with no stall
  ReportMark start;  ///< at the first measured round
  ReportMark end;
  Digest digest;
  Digest work;
  obs::MetricsSnapshot counters;  ///< delta over the measured rounds (traced)
  SpanTotals spans;               ///< traced passes only
  std::uint64_t dropped = 0;      ///< trace events lost to a full ring

  [[nodiscard]] double round_ns() const {
    return churn_ns + demands_ns + step_ns;
  }
};

RoundPass run_rounds(World& world, const RoundSpec& spec, bool traced,
                     RunResult& result) {
  sim::Simulator& simulator = *world.simulator;
  auto& registry = obs::MetricsRegistry::global();
  RoundPass pass;
  pass.round_ms.reserve(static_cast<std::size_t>(spec.measured));
  obs::MetricsSnapshot counters_before;

  // Churn drizzle: a round-robin cursor takes churn_per_round boxes offline
  // each round, and each comes back kOutage rounds later.
  std::deque<std::pair<model::Round, model::BoxId>> down;
  model::BoxId cursor = 0;

  ReportMark mark = ReportMark::of(simulator.report());
  const model::Round total = spec.warmup + spec.measured;
  for (model::Round round = 0; round < total; ++round) {
    const bool timed = round >= spec.warmup;
    if (round == spec.warmup) {
      pass.start = mark;
      if (traced) {
        counters_before = registry.snapshot();
        start_trace();
      }
    }
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    std::uint64_t t2 = 0;
    std::uint64_t t3 = 0;
    ++result.attempted;
    try {
      t0 = obs::monotonic_ns();
      while (!down.empty() && down.front().first <= round) {
        simulator.set_box_online(down.front().second, true);
        down.pop_front();
      }
      for (std::uint32_t i = 0; i < spec.churn_per_round; ++i) {
        const model::BoxId victim = cursor;
        cursor = (cursor + 1) % spec.n;
        if (!simulator.box_online(victim)) continue;
        simulator.set_box_online(victim, false);
        down.emplace_back(round + kOutage, victim);
      }
      t1 = obs::monotonic_ns();
      const std::vector<sim::Demand> demands =
          world.audience->demands(simulator);
      t2 = obs::monotonic_ns();
      simulator.step(demands);
      t3 = obs::monotonic_ns();
    } catch (const std::exception& e) {
      result.fail("round " + std::to_string(round) + " threw: " + e.what());
      break;
    }

    // Outside the timed region from here on.
    if (traced && timed) fold_trace(pass.spans, round + 1 < total);
    const ReportMark next = ReportMark::of(simulator.report());
    if (const std::string broken = check_round(
            mark, next, simulator.total_capacity_slots(), spec.zones > 0);
        !broken.empty())
      result.fail(broken + " in round " + std::to_string(round));
    if (timed) {
      if (next.stalled == mark.stalled) ++pass.clean_rounds;
      pass.round_ms.push_back(ns_to_ms(static_cast<double>(t3 - t0)));
      pass.churn_ns += static_cast<double>(t1 - t0);
      pass.demands_ns += static_cast<double>(t2 - t1);
      pass.step_ns += static_cast<double>(t3 - t2);
    }
    mark = next;
  }
  if (obs::TraceSession::active()) fold_trace(pass.spans, false);
  pass.end = mark;
  pass.digest = {
      {"chunks_served", static_cast<std::int64_t>(mark.served)},
      {"chunks_stalled", static_cast<std::int64_t>(mark.stalled)},
      {"matcher_edges", static_cast<std::int64_t>(mark.edges)},
      {"link_cap_rejections", static_cast<std::int64_t>(mark.rejections)},
      {"link_cap_rescues", static_cast<std::int64_t>(mark.rescues)},
      {"zone_cost_total", mark.zone_cost},
  };
  pass.work = {
      {"rows_built", static_cast<std::int64_t>(mark.rows_built)},
      {"row_patches", static_cast<std::int64_t>(mark.row_patches)},
  };
  if (traced) {
    pass.counters = registry.snapshot().delta_since(counters_before);
    pass.dropped = counter(pass.counters, "obs/trace_dropped_events");
  }
  return pass;
}

/// One run of one world: its setup, its rounds, and its own failures.
struct Replica {
  SetupTimes setup;
  RoundPass pass;
  RunResult result;
  std::exception_ptr error;
};

/// A wave: world `seed` is built and run once per entry of `cpus`, all at
/// once, each replica on its own thread kept on its own CPU. Every replica
/// does identical work; the worlds are dropped before this returns.
///
/// On a shared host a neighbour slows one CPU at a time, or all of them for
/// a burst; a round's fastest replica over the CPUs and over waves spread
/// through the run is its time on a quiet core.
std::vector<Replica> run_wave(const RoundSpec& spec, std::uint64_t seed,
                              const std::vector<int>& cpus, bool traced) {
  std::vector<Replica> replicas(cpus.size());
  {
    std::vector<std::jthread> threads;
    threads.reserve(cpus.size());
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads.emplace_back([&spec, &replicas, &cpus, seed, traced, i] {
        Replica& replica = replicas[i];
        try {
          pin_this_thread(cpus[i]);
          const std::unique_ptr<World> world =
              build_world(spec, seed, replica.setup);
          replica.pass = run_rounds(*world, spec, traced, replica.result);
        } catch (...) {
          replica.error = std::current_exception();
        }
      });
    }
  }  // every thread joins here
  for (const Replica& replica : replicas) {
    if (replica.error) std::rethrow_exception(replica.error);
  }
  return replicas;
}

/// Elementwise minimum over passes that repeated identical work: what the
/// slower passes add is interference from the rest of the machine.
std::vector<double> fastest(const std::vector<std::vector<double>>& passes) {
  std::vector<double> out = passes.front();
  for (const std::vector<double>& pass : passes) {
    out.resize(std::min(out.size(), pass.size()));
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = std::min(out[i], pass[i]);
  }
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) total += value;
  return total;
}

/// Elementwise sum of digests with the same names in the same order.
Digest sum_digests(const std::vector<Digest>& digests) {
  Digest out = digests.front();
  for (std::size_t i = 1; i < digests.size(); ++i) {
    for (std::size_t j = 0; j < out.size(); ++j)
      out[j].second += digests[i][j].second;
  }
  return out;
}

void add_op_metrics(std::vector<Metric>& out, const std::vector<double>& op_ms,
                    double busy_ms, const std::string& base) {
  const auto count = static_cast<double>(op_ms.size());
  out.push_back({"ops_per_s", ratio(count, busy_ms * 1e-3), "1/s", base});
  out.push_back({"op_p50_ms", util::quantile(op_ms, 0.5), "ms", base});
  out.push_back({"op_p90_ms", util::quantile(op_ms, 0.9), "ms", base});
}

void add_setup_metrics(std::vector<Metric>& out,
                       const std::vector<SetupTimes>& reps) {
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& rep : reps) values.push_back(rep.*field);
    return median(values);
  };
  const std::string base = count_base("setups", reps.size());
  out.push_back({"model.build_s", med(&SetupTimes::model_s), "s", base});
  out.push_back({"alloc.allocate_s", med(&SetupTimes::alloc_s), "s", base});
  out.push_back({"net.topology_s", med(&SetupTimes::topology_s), "s", base});
  out.push_back({"sim.construct_s", med(&SetupTimes::sim_s), "s", base});
  out.push_back({"workload.construct_s", med(&SetupTimes::workload_s), "s",
                 base});
}

RunResult run_round_workload(const std::string& name,
                             const RunOptions& options) {
  const RoundSpec spec = round_spec(name, options.smoke);
  const std::vector<int> cpus = benchmark_cpus();
  const std::int64_t waves_per_world =
      options.smoke ? 1
                    : std::max<std::int64_t>(
                          1, std::llround(options.seconds /
                                          (spec.worlds * spec.wave_s)));

  RunResult result;
  result.sizes.set("n", static_cast<std::uint64_t>(spec.n));
  result.sizes.set("u", spec.u);
  result.sizes.set("d", kStorage);
  result.sizes.set("c", static_cast<std::uint64_t>(kStripes));
  result.sizes.set("k", static_cast<std::uint64_t>(kReplicas));
  result.sizes.set("T", static_cast<std::int64_t>(kDuration));
  result.sizes.set("m", static_cast<std::uint64_t>(catalog_size(spec.n)));
  result.sizes.set("zipf_alpha", spec.alpha);
  result.sizes.set("demand_prob", spec.demand_prob);
  result.sizes.set("engine", spec.sparse ? "sparse" : "dense");
  result.sizes.set("zones", static_cast<std::uint64_t>(spec.zones));
  result.sizes.set("link_cap", static_cast<std::uint64_t>(spec.link_cap));
  result.sizes.set("churn_per_round",
                   static_cast<std::uint64_t>(spec.churn_per_round));
  result.sizes.set("warmup_rounds", static_cast<std::int64_t>(spec.warmup));
  result.sizes.set("measured_rounds", static_cast<std::int64_t>(spec.measured));
  result.sizes.set("worlds", static_cast<std::uint64_t>(spec.worlds));
  result.sizes.set("waves_per_world", waves_per_world);
  result.sizes.set("replicas_per_wave",
                   static_cast<std::uint64_t>(cpus.size()));

  // Untraced, the waves cycle through the worlds so each world's waves are
  // spread over the whole run, and every wave runs one replica per CPU.
  // Traced, each world runs once on one CPU, for the digest, and world 0
  // runs once more under the trace.
  const std::vector<int> wave_cpus =
      options.traced ? std::vector<int>{cpus.front()} : cpus;
  const std::int64_t waves =
      options.traced ? spec.worlds : spec.worlds * waves_per_world;
  std::vector<std::vector<std::vector<double>>> round_ms(spec.worlds);
  std::vector<Digest> digests(spec.worlds);
  std::vector<Digest> works(spec.worlds);
  std::vector<SetupTimes> setups;
  double world0_round_ns = 0.0;
  for (std::int64_t i = 0; i < waves; ++i) {
    const auto w = static_cast<std::uint32_t>(i % spec.worlds);
    std::vector<Replica> replicas = run_wave(
        spec, world_seed(options.seed, w), wave_cpus, /*traced=*/false);
    if (i == 0) world0_round_ns = replicas.front().pass.round_ns();
    for (Replica& replica : replicas) {
      absorb(result, replica.result);
      setups.push_back(replica.setup);
      if (digests[w].empty()) {
        digests[w] = replica.pass.digest;
        works[w] = replica.pass.work;
      } else if (replica.pass.digest != digests[w] ||
                 replica.pass.work != works[w]) {
        result.fail("runs of world " + std::to_string(w) +
                    " disagree on the digest");
      }
      round_ms[w].push_back(std::move(replica.pass.round_ms));
    }
  }
  result.digest = sum_digests(digests);
  result.work = sum_digests(works);

  if (!options.traced) {
    std::vector<double> setup_totals;
    for (const SetupTimes& rep : setups) setup_totals.push_back(rep.total());
    result.end_to_end.push_back({"setup_s", median(setup_totals), "s",
                                 count_base("setups", setups.size())});
    // Each round counts its fastest run among its world's replicas.
    std::vector<double> op_ms;
    for (const auto& runs : round_ms) {
      const std::vector<double> best = fastest(runs);
      op_ms.insert(op_ms.end(), best.begin(), best.end());
    }
    add_op_metrics(result.end_to_end, op_ms, sum(op_ms),
                   count_base("rounds", op_ms.size()) + " fastest_of=" +
                       std::to_string(round_ms.front().size()));
    result.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
    return result;
  }

  Replica traced = std::move(
      run_wave(spec, world_seed(options.seed, 0), wave_cpus, true).front());
  absorb(result, traced.result);
  if (traced.pass.digest != digests.front() ||
      traced.pass.work != works.front())
    result.fail("traced and untraced runs of world 0 disagree on the digest");
  if (traced.pass.dropped > 0)
    result.fail("trace ring dropped " + std::to_string(traced.pass.dropped) +
                " events");

  const RoundPass& pass = traced.pass;
  auto& out = result.per_layer;
  const auto rounds = static_cast<double>(pass.round_ms.size());
  const std::string base = count_base("rounds", pass.round_ms.size());
  add_setup_metrics(out, setups);
  out.push_back({"workload.demands_ms", ns_to_ms(pass.demands_ns) / rounds,
                 "ms", base});
  out.push_back({"sim.churn_ms", ns_to_ms(pass.churn_ns) / rounds, "ms", base});
  out.push_back({"sim.step_ms", ns_to_ms(pass.step_ns) / rounds, "ms", base});
  out.push_back(
      {"sim.step_outside_solve_ms",
       ns_to_ms(pass.step_ns - static_cast<double>(pass.spans.solve_total_ns)) /
           rounds,
       "ms", base});
  add_span_metrics(out, pass.spans, rounds, base);
  out.push_back(
      {"attributed_frac",
       1.0 - ratio(static_cast<double>(pass.spans.solve_unlisted_ns),
                   pass.round_ns()),
       "ratio", "round_time"});

  add_count_metrics(out, pass.counters);
  const ReportMark& a = pass.start;
  const ReportMark& b = pass.end;
  out.push_back({"sim.rows_built_per_round",
                 static_cast<double>(b.rows_built - a.rows_built) / rounds,
                 "count/round", base});
  out.push_back({"sim.row_patches_per_round",
                 static_cast<double>(b.row_patches - a.row_patches) / rounds,
                 "count/round", base});
  out.push_back({"sim.sparse_full_rebuilds",
                 static_cast<double>(b.full_rebuilds - a.full_rebuilds),
                 "count", base});
  out.push_back({"sim.sessions_aborted_per_round",
                 static_cast<double>(b.aborted - a.aborted) / rounds,
                 "count/round", base});
  out.push_back({"analysis.success_rate",
                 static_cast<double>(pass.clean_rounds) / rounds, "ratio",
                 base + " (rounds with no stall)"});
  out.push_back({"pool.steal_frac", 0.0, "ratio", "no pool"});
  out.push_back({"pool.busy_frac", 0.0, "ratio", "no pool"});
  out.push_back({"obs.trace_dropped_events",
                 static_cast<double>(pass.dropped), "count", base});
  out.push_back({"trace_overhead_frac",
                 pass.round_ns() / world0_round_ns - 1.0, "ratio",
                 "untraced_round_time"});
  return result;
}

// --- threshold_trials -------------------------------------------------------

struct TrialOutcome {
  bool success = false;
  bool threw = false;
  std::uint64_t ns = 0;
  std::string what;
};

struct TrialPass {
  std::vector<double> trial_ms;
  std::vector<double> batch_ms;  ///< wall time of each parallel_map call
  double busy_ns = 0.0;          ///< summed over trials (across threads)
  std::uint64_t successes = 0;
  std::uint64_t successes_at_horizon = 0;
  obs::MetricsSnapshot counters;
  util::PoolStats pool_before;
  util::PoolStats pool_after;
  SpanTotals spans;
  std::uint64_t dropped = 0;
};

/// Trials [0, count) of `base`, batch by batch; trial i runs with
/// child_seed(base, i), the seeding Calibrator::success_rate uses. Each
/// trial is its own chunk (grain 1), so a batch ends at most one trial after
/// its last thread goes idle.
TrialPass run_trials(util::ThreadPool& pool, const TrialWorkload& w,
                     std::uint64_t base, std::uint64_t count, bool traced,
                     RunResult& result) {
  auto& registry = obs::MetricsRegistry::global();
  TrialPass pass;
  pass.trial_ms.reserve(count);
  const obs::MetricsSnapshot counters_before = registry.snapshot();
  pass.pool_before = pool.stats();
  if (traced) start_trace();
  for (std::uint64_t start = 0; start < count; start += w.batch) {
    const std::uint64_t size = std::min(w.batch, count - start);
    const std::uint64_t t0 = obs::monotonic_ns();
    const std::vector<TrialOutcome> outcomes =
        util::parallel_map<TrialOutcome>(
            size,
            [&](std::size_t i) {
              TrialOutcome outcome;
              const std::uint64_t begin = obs::monotonic_ns();
              try {
                outcome.success = analysis::Calibrator::run_trial(
                    w.spec, util::child_seed(base, start + i));
              } catch (const std::exception& e) {
                outcome.threw = true;
                outcome.what = e.what();
              }
              outcome.ns = obs::monotonic_ns() - begin;
              return outcome;
            },
            &pool, /*grain=*/1);
    pass.batch_ms.push_back(
        ns_to_ms(static_cast<double>(obs::monotonic_ns() - t0)));

    // Outside the timed region from here on.
    if (traced) fold_trace(pass.spans, start + size < count);
    for (std::uint64_t i = 0; i < size; ++i) {
      const TrialOutcome& outcome = outcomes[i];
      ++result.attempted;
      if (outcome.threw)
        result.fail("trial " + std::to_string(start + i) +
                    " threw: " + outcome.what);
      if (outcome.success) {
        ++pass.successes;
        if (start + i < w.horizon) ++pass.successes_at_horizon;
      }
      pass.trial_ms.push_back(ns_to_ms(static_cast<double>(outcome.ns)));
      pass.busy_ns += static_cast<double>(outcome.ns);
    }
  }
  pass.pool_after = pool.stats();
  pass.counters = registry.snapshot().delta_since(counters_before);
  pass.dropped = counter(pass.counters, "obs/trace_dropped_events");
  return pass;
}

RunResult run_trial_workload(const RunOptions& options) {
  const TrialWorkload w = trial_workload(options.smoke);
  const std::uint64_t count =
      options.smoke
          ? w.horizon
          : std::max<std::uint64_t>(
                w.horizon,
                static_cast<std::uint64_t>(std::llround(
                    w.nominal_per_s * options.seconds / kTrialPasses)));
  // The caller claims chunks beside the pool's workers, so the pool gets one
  // thread fewer than the benchmark may run.
  const std::size_t workers =
      std::max<std::size_t>(1, benchmark_cpus().size() - 1);

  RunResult result;
  result.sizes.set("n", static_cast<std::uint64_t>(w.spec.n));
  result.sizes.set("u", w.spec.u);
  result.sizes.set("d", w.spec.d);
  result.sizes.set("mu", w.spec.mu);
  result.sizes.set("c", static_cast<std::uint64_t>(w.spec.c));
  result.sizes.set("k", static_cast<std::uint64_t>(w.spec.k));
  result.sizes.set("T", static_cast<std::int64_t>(w.spec.duration));
  result.sizes.set("rounds_per_workload",
                   static_cast<std::int64_t>(w.spec.rounds));
  result.sizes.set("m", static_cast<std::uint64_t>(w.spec.catalog()));
  result.sizes.set("suite", analysis::suite_name(w.spec.suite));
  result.sizes.set("threads", static_cast<std::uint64_t>(workers + 1));
  result.sizes.set("batch", w.batch);
  result.sizes.set("warmup_trials", w.warmup);
  result.sizes.set("measured_trials", count);
  result.sizes.set("digest_trials", w.horizon);

  // Setup is starting the pool, timed at every start. A pool is stopped
  // before the next starts, so no more than `workers` pool threads exist.
  std::vector<double> setups;
  std::unique_ptr<util::ThreadPool> pool;
  const auto start_pool = [&] {
    pool.reset();
    std::uint64_t clock = obs::monotonic_ns();
    pool = std::make_unique<util::ThreadPool>(workers);
    setups.push_back(lap_s(clock));
  };
  const std::uint64_t base = util::child_seed(options.seed, kTrialSeed);
  const int passes = options.traced ? 1 : kTrialPasses;
  std::vector<TrialPass> plain;
  for (int p = 0; p < passes; ++p) {
    for (int i = 0; i < (options.smoke ? 1 : kPoolStarts); ++i) start_pool();
    // Warm-up trials come from their own seed stream and are not reported.
    RunResult warmup;
    (void)run_trials(*pool, w, util::child_seed(options.seed, kWarmupTrialSeed),
                     w.warmup, false, warmup);
    for (const std::string& what : warmup.failures) result.fail(what);
    // Every pass runs the same trials.
    plain.push_back(run_trials(*pool, w, base, count, false, result));
    if (plain.back().successes != plain.front().successes)
      result.fail("pass " + std::to_string(p) +
                  " disagrees with pass 0 on the digest");
  }
  result.digest = {{"successes", static_cast<std::int64_t>(
                                     plain.front().successes_at_horizon)}};

  if (!options.traced) {
    result.end_to_end.push_back(
        {"setup_s", median(setups), "s", count_base("setups", setups.size())});
    std::vector<std::vector<double>> trial_ms;
    for (const TrialPass& pass : plain) trial_ms.push_back(pass.trial_ms);
    const std::vector<double> best = fastest(trial_ms);
    // Throughput from each trial's fastest time on `threads` busy threads,
    // not from batch walls: every batch spans every CPU, so a batch wall
    // grows with the slowest CPU in every pass. What the pool loses to
    // idle threads is the traced run's pool.busy_frac.
    add_op_metrics(result.end_to_end, best,
                   sum(best) / static_cast<double>(workers + 1),
                   count_base("trials", count) + " threads=" +
                       std::to_string(workers + 1) +
                       " fastest_of=" + std::to_string(kTrialPasses));
    result.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
    return result;
  }

  const TrialPass traced = run_trials(*pool, w, base, count, true, result);
  pool.reset();
  if (traced.successes != plain.front().successes)
    result.fail("traced and untraced passes disagree on the digest");
  if (traced.dropped > 0)
    result.fail("trace ring dropped " + std::to_string(traced.dropped) +
                " events");

  auto& out = result.per_layer;
  const auto trials = static_cast<double>(count);
  const std::string base_trials = count_base("trials", count);
  // No model/alloc/simulator/generator calls happen outside run_trial.
  for (const char* name : {"model.build_s", "alloc.allocate_s",
                           "net.topology_s", "sim.construct_s",
                           "workload.construct_s"})
    out.push_back({name, 0.0, "s", "inside run_trial"});
  for (const char* name : {"workload.demands_ms", "sim.churn_ms",
                           "sim.step_ms", "sim.step_outside_solve_ms"})
    out.push_back({name, 0.0, "ms", "inside run_trial"});
  add_span_metrics(out, traced.spans, trials, base_trials);
  out.push_back({"attributed_frac",
                 ratio(static_cast<double>(traced.spans.listed_ns()),
                       traced.busy_ns),
                 "ratio", "trial_time"});
  add_count_metrics(out, traced.counters);
  for (const char* name : {"sim.rows_built_per_round",
                           "sim.row_patches_per_round",
                           "sim.sessions_aborted_per_round"})
    out.push_back({name, 0.0, "count/round", "not reported by run_trial"});
  out.push_back({"sim.sparse_full_rebuilds", 0.0, "count",
                 "not reported by run_trial"});
  const util::Proportion rate =
      util::wilson_interval(traced.successes, traced.trial_ms.size());
  out.push_back({"analysis.success_rate", rate.estimate, "ratio",
                 base_trials + " wilson95=[" + std::to_string(rate.lower) +
                     "," + std::to_string(rate.upper) + "]"});
  const double executed = static_cast<double>(traced.pool_after.executed() -
                                              traced.pool_before.executed());
  const double stolen =
      static_cast<double>(traced.pool_after.executed_stolen -
                          traced.pool_before.executed_stolen);
  out.push_back({"pool.steal_frac", ratio(stolen, executed), "ratio",
                 count_base("pool_tasks", executed)});
  out.push_back({"pool.busy_frac",
                 ratio(ns_to_ms(traced.busy_ns),
                       static_cast<double>(workers + 1) *
                           sum(traced.batch_ms)),
                 "ratio", "trial_time over threads x batch_wall"});
  out.push_back({"obs.trace_dropped_events",
                 static_cast<double>(traced.dropped), "count", base_trials});
  out.push_back({"trace_overhead_frac",
                 sum(traced.batch_ms) / sum(plain.front().batch_ms) - 1.0,
                 "ratio", "untraced_wall"});
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sparse_5k", "churn_5k", "zone_caps", "threshold_trials"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "threshold_trials")
    return run_trial_workload(options);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end())
    throw std::invalid_argument("unknown workload: " + options.workload);
  return run_round_workload(options.workload, options);
}

}  // namespace p2pvod::benchmark
