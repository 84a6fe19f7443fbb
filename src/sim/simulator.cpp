#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "flow/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "workload/demand.hpp"

namespace p2pvod::sim {

// solve_round_zone_aware feeds net::Cost values into flow::EdgeCosts; the
// aliases live in layers that don't include each other, so pin their
// agreement here.
static_assert(std::is_same_v<net::Cost, flow::Cost>,
              "net::Cost and flow::Cost must be the same type");

Simulator::Simulator(const model::Catalog& catalog,
                     const model::CapacityProfile& profile,
                     const alloc::Allocation& allocation,
                     RequestStrategy& strategy, SimulatorOptions options)
    : catalog_(catalog),
      profile_(profile),
      allocation_(allocation),
      strategy_(strategy),
      options_(std::move(options)),
      swarms_(catalog.video_count()),
      cache_(profile.size(), catalog.stripe_count(), catalog.duration()),
      busy_until_(profile.size(), 0),
      last_session_(profile.size(), kInvalidSession) {
  if (allocation_.box_count() != profile_.size())
    throw std::invalid_argument("Simulator: allocation/profile size mismatch");
  if (allocation_.stripe_count() != catalog_.stripe_count())
    throw std::invalid_argument(
        "Simulator: allocation/catalog stripe mismatch");
  if (options_.topology != nullptr &&
      options_.topology->box_count() != profile_.size())
    throw std::invalid_argument("Simulator: topology/profile size mismatch");
  const std::uint32_t c = catalog_.stripes_per_video();
  if (options_.capacity_override.empty()) {
    capacity_slots_.resize(profile_.size());
    for (model::BoxId b = 0; b < profile_.size(); ++b)
      capacity_slots_[b] = profile_.upload_slots(b, c);
  } else {
    if (options_.capacity_override.size() != profile_.size())
      throw std::invalid_argument(
          "Simulator: capacity_override size mismatch");
    capacity_slots_ = options_.capacity_override;
  }
  for (const std::uint32_t slots : capacity_slots_)
    total_capacity_slots_ += slots;
  nominal_capacity_ = capacity_slots_;
  online_.assign(profile_.size(), true);

  // The CSR engine repairs last round's matching and is blind to costs, so
  // it cannot honor a topology: asking for both is a config error.
  if (options_.sparse && options_.topology != nullptr)
    throw std::invalid_argument(
        "Simulator: sparse engine cannot honor a topology (cost-aware "
        "matching is dense-only)");
  if (options_.topology == nullptr) {
    sparse_ = std::make_unique<SparseRoundState>(profile_.size(),
                                                 catalog_.stripe_count());
  }
}

std::uint32_t Simulator::idle_box_count() const {
  std::uint32_t idle = 0;
  for (model::BoxId b = 0; b < profile_.size(); ++b) {
    if (box_idle(b)) ++idle;
  }
  return idle;
}

void Simulator::admit(const Demand& demand) {
  if (!catalog_.contains_video(demand.video))
    throw std::out_of_range("Simulator: demand for unknown video");
  if (demand.box >= profile_.size())
    throw std::out_of_range("Simulator: demand from unknown box");
  if (!box_idle(demand.box)) {
    ++report_.demands_rejected;
    return;
  }

  // The box enters the swarm only once its plan is accepted; it plans with
  // the ticket enter() will hand it.
  scratch_plans_.clear();
  strategy_.plan(demand.box, demand.video,
                 swarms_.total_entries(demand.video), now_, *this,
                 scratch_plans_);

  // Check every plan before changing any state, so a bad plan throws with
  // nothing half-admitted. Playback can start once every stripe has
  // delivered its first chunk to the viewer; with no network requests the
  // box plays from local storage. Plans with no requester are
  // forwarding-from-storage (the §4 relay holds the stripe statically): they
  // register cache grants but no network request. A plan whose requester is
  // offline cannot be served at all (e.g. a custom strategy routed through a
  // dead relay): reject the demand outright.
  model::Round viewer_last_entry = now_;
  std::uint32_t network_requests = 0;
  for (const PlannedRequest& plan : scratch_plans_) {
    if (plan.issue < now_)
      throw std::logic_error("Simulator: plan issued in the past");
    if (!catalog_.contains(plan.stripe))
      throw std::out_of_range("Simulator: plan for unknown stripe");
    for (const CacheGrant& grant : plan.grants) {
      if (grant.box >= profile_.size())
        throw std::out_of_range("Simulator: cache grant to unknown box");
      if (grant.box == demand.box)
        viewer_last_entry = std::max(viewer_last_entry, grant.entry);
    }
    if (plan.requester == model::kInvalidBox) continue;
    if (!online_.at(plan.requester)) {
      ++report_.demands_rejected;
      return;
    }
    ++network_requests;
  }
  const model::Round playback_start = viewer_last_entry + 1;
  const model::Round ends = playback_start + catalog_.duration();

  ++report_.demands_admitted;
  swarms_.enter(demand.video, now_);
  const auto session_id = static_cast<SessionId>(sessions_.size());
  sessions_.push_back({demand.box, demand.video, now_, playback_start, ends,
                       network_requests});
  busy_until_[demand.box] = ends;
  last_session_[demand.box] = session_id;
  end_events_.add(ends, session_id);

  // Start-up delay measured from the start of the arrival interval [t-1, t[:
  // preloading gives (t+1)+1 - (t-1) = 3 rounds, as in §3.
  report_.startup_delay.add(playback_start - (now_ - 1));

  for (const PlannedRequest& plan : scratch_plans_) {
    for (const CacheGrant& grant : plan.grants) {
      cache_.grant(plan.stripe, grant.box, grant.entry);
      if (sparse_ != nullptr)
        sparse_->on_grant(plan.stripe, grant.box, grant.entry);
    }
    if (plan.requester == model::kInvalidBox) continue;
    ++report_.requests_issued;
    pending_.add(plan.issue,
                 {plan.stripe, plan.issue, plan.requester, session_id});
  }
}

void Simulator::activate_pending() {
  OBS_SPAN("sim/activate");
  pending_.take_through(now_, [this](const PendingRequest& pending) {
    const std::uint32_t slot =
        sparse_ != nullptr ? sparse_->add_request(
                                 pending.stripe, pending.issue,
                                 pending.requester)
                           : kNoSparseSlot;
    live_.push_back(pending.stripe, pending.issue, pending.requester,
                    pending.session, slot);
  });
}

void Simulator::solve_round() {
  if (live_.empty()) return;
  OBS_SPAN("sim/solve_round");

  const std::uint32_t served =
      sparse_ != nullptr ? solve_round_sparse() : solve_round_zone_aware();

  report_.chunks_served += served;
  const std::uint64_t unserved = live_.size() - served;
  if (unserved > 0) {
    report_.chunks_stalled += unserved;
    if (report_.first_stall < 0) {
      report_.first_stall = now_;
      record_stall_witness();
    }
    if (options_.strict) {
      report_.success = false;
      stalled_ = true;
    }
  }

  if (total_capacity_slots_ > 0) {
    report_.upload_utilization.add(static_cast<double>(served) /
                                   static_cast<double>(total_capacity_slots_));
  }
}

flow::ConnectionProblem Simulator::build_connection_problem() {
  flow::ConnectionProblem problem(profile_.size());
  problem.set_capacities(capacity_slots_);
  OBS_SPAN("sim/build_candidates");
  for (std::size_t i = 0; i < live_.size(); ++i) {
    scratch_candidates_.clear();
    for (const model::BoxId holder : allocation_.holders(live_.stripe[i])) {
      if (holder != live_.requester[i] && online_[holder])
        scratch_candidates_.push_back(holder);
    }
    cache_.collect_servers(live_.stripe[i], live_.issue[i], now_,
                           live_.requester[i], scratch_candidates_);
    std::sort(scratch_candidates_.begin(), scratch_candidates_.end());
    scratch_candidates_.erase(
        std::unique(scratch_candidates_.begin(), scratch_candidates_.end()),
        scratch_candidates_.end());
    problem.add_request(scratch_candidates_);
  }
  return problem;
}

void Simulator::record_stall_witness() {
  if (sparse_ == nullptr) {
    const flow::ConnectionProblem problem = build_connection_problem();
    if (const auto witness = problem.infeasibility_witness())
      report_.stall_witness_size = static_cast<std::uint32_t>(witness->size());
    return;
  }
  const std::vector<std::uint32_t> witness =
      sparse_->hall_witness(capacity_slots_);
  report_.stall_witness_size = static_cast<std::uint32_t>(witness.size());
  if (!options_.verify_incremental) return;
  // The dense min cut must name the same requests.
  const auto dense = build_connection_problem().infeasibility_witness();
  std::vector<std::uint32_t> expected;
  if (dense) {
    for (const std::uint32_t i : *dense) expected.push_back(live_.slot[i]);
  }
  std::sort(expected.begin(), expected.end());
  if (witness != expected)
    throw std::logic_error(
        "Simulator: CSR Hall witness disagrees with the dense min cut");
}

std::uint32_t Simulator::solve_round_sparse() {
  const auto collect = [this](model::StripeId stripe, model::Round issue,
                              std::vector<model::BoxId>& out) {
    for (const model::BoxId holder : allocation_.holders(stripe)) {
      if (online_[holder]) out.push_back(holder);
    }
    cache_.collect_servers(stripe, issue, now_, model::kInvalidBox, out);
  };
  std::uint32_t served = 0;
  {
    OBS_SPAN("sim/match");
    served = sparse_->solve(expired_, capacity_slots_, collect);
  }
  report_.matcher_edges += sparse_->edge_count();
  const SparseStats& stats = sparse_->stats();
  report_.kept_connections = stats.kept_connections;
  report_.new_connections = stats.new_connections;
  report_.rows_built = stats.rows_built;
  report_.row_patches = stats.row_patches;
  report_.expiry_events = stats.expiry_events;

  if (options_.verify_incremental) {
    // Reconstruct the round's dense problem from ground truth and validate
    // the CSR state against it: each row must hold exactly its request's
    // candidates (a patch that drops the wrong box can keep the edge total),
    // the maintained edge total must be their sum, membership and capacity
    // violations surface with the offending request named, and a
    // served-count mismatch against the Dinic oracle catches lost
    // maximality.
    const flow::ConnectionProblem problem = build_connection_problem();
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const auto row = sparse_->row(live_.slot[i]);
      const auto& truth = problem.candidates(static_cast<std::uint32_t>(i));
      if (!std::equal(row.begin(), row.end(), truth.begin(), truth.end()))
        throw std::logic_error("Simulator: CSR row of request " +
                               std::to_string(i) +
                               " disagrees with ground truth");
    }
    if (problem.edge_count() != sparse_->edge_count())
      throw std::logic_error(
          "Simulator: CSR edge total disagrees with the dense problem's");
    flow::MatchResult check;
    check.assignment.resize(live_.size());
    for (std::size_t i = 0; i < live_.size(); ++i)
      check.assignment[i] = sparse_->assignment(live_.slot[i]);
    check.served = served;
    check.complete = served == live_.size();
    flow::validate_assignment(problem, check);
    if (problem.solve().served != served)
      throw std::logic_error(
          "Simulator: sparse matcher disagrees with reference solve");
  }
  return served;
}

std::uint32_t Simulator::solve_round_zone_aware() {
  const flow::ConnectionProblem problem = build_connection_problem();
  report_.rows_built += live_.size();  // every row, every round
  report_.matcher_edges += problem.edge_count();
  OBS_SPAN("sim/match");

  const net::Topology& topology = *options_.topology;

  // Candidate edge (b, r) costs the zone-pair transit from b's zone into the
  // requester's zone; the solver minimizes the round's total transit among
  // maximum matchings (so feasibility answers match the Dinic path exactly).
  flow::EdgeCosts costs(live_.size());
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const net::ZoneId dest = topology.zone_of(live_.requester[i]);
    const auto& candidates = problem.candidates(static_cast<std::uint32_t>(i));
    costs[i].reserve(candidates.size());
    for (const std::uint32_t b : candidates) {
      costs[i].push_back(topology.cost(topology.zone_of(b), dest));
    }
  }
  flow::MatchResult result = flow::MinCostMatcher::solve(problem, costs).match;

  if (topology.has_link_caps()) enforce_link_caps(problem, costs, result);

  // Per-round zone accounting over the final assignment.
  std::uint64_t intra = 0;
  std::uint64_t cross = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const std::int32_t assigned = result.assignment[i];
    if (assigned < 0) continue;
    const auto b = static_cast<model::BoxId>(assigned);
    const net::ZoneId from = topology.zone_of(b);
    const net::ZoneId to = topology.zone_of(live_.requester[i]);
    (from == to ? intra : cross) += 1;
    report_.zone_cost_total += topology.cost(from, to);
  }
  report_.intra_zone_chunks += intra;
  report_.cross_zone_chunks += cross;
  if (intra + cross > 0) {
    report_.cross_zone_fraction.add(static_cast<double>(cross) /
                                    static_cast<double>(intra + cross));
  }
  return result.served;
}

// The topology's "no cap" sentinel must be flow's "no group / unlimited
// budget" sentinel for the cap matrix to pass through unchanged.
static_assert(net::kUnlimitedLink == flow::kUncappedGroup,
              "net::kUnlimitedLink and flow::kUncappedGroup must agree");

void Simulator::enforce_link_caps(const flow::ConnectionProblem& problem,
                                  const flow::EdgeCosts& costs,
                                  flow::MatchResult& result) {
  const net::Topology& topology = *options_.topology;
  const std::uint32_t zones = topology.zone_count();

  // Each candidate edge's cap group is the directed zone-pair link it would
  // cross; the flattened link-cap matrix is the budget table.
  flow::EdgeGroups groups(live_.size());
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const net::ZoneId dest = topology.zone_of(live_.requester[i]);
    const auto& candidates = problem.candidates(static_cast<std::uint32_t>(i));
    groups[i].reserve(candidates.size());
    for (const std::uint32_t b : candidates) {
      groups[i].push_back(
          static_cast<std::uint32_t>(topology.zone_of(b)) * zones + dest);
    }
  }
  std::vector<std::uint32_t> caps(static_cast<std::size_t>(zones) * zones);
  for (net::ZoneId a = 0; a < zones; ++a) {
    for (net::ZoneId b = 0; b < zones; ++b) {
      caps[static_cast<std::size_t>(a) * zones + b] = topology.link_cap(a, b);
    }
  }

  const flow::GroupCapOutcome outcome =
      flow::enforce_group_caps(problem, costs, groups, caps, result);
  report_.link_cap_rejections += outcome.rejections;
  report_.link_cap_rescues += outcome.rescues;
}

void Simulator::retire_completed() {
  OBS_SPAN("sim/retire");
  assert(std::is_sorted(live_.issue.begin(), live_.issue.end()) &&
         "Simulator: live requests out of issue order");
  // A request retires once its last chunk (position T-1) went out this
  // round: issued at or before now + 1 - T. In issue order that is a prefix.
  const model::Round last_issue = now_ + 1 - catalog_.duration();
  std::size_t done = 0;
  for (; done < live_.size() && live_.issue[done] <= last_issue; ++done) {
    Session& session = sessions_[live_.session[done]];
    if (session.pending_requests == 0)
      throw std::logic_error("Simulator: session underflow");
    --session.pending_requests;
    if (sparse_ != nullptr) sparse_->remove_request(live_.slot[done]);
  }
  live_.erase_front(done);
}

void Simulator::abort_session(SessionId id) {
  Session& session = sessions_.at(id);
  if (session.aborted) return;
  if (session.ends <= now_) return;  // already finished normally
  session.aborted = true;
  swarms_.leave(session.video);
  ++report_.sessions_aborted;
  busy_until_[session.box] = std::min(busy_until_[session.box], now_);

  // Drop the session's live requests (order-preserving) and its
  // not-yet-activated pending requests.
  std::size_t write = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_.session[i] == id) {
      if (sparse_ != nullptr) sparse_->remove_request(live_.slot[i]);
      continue;
    }
    live_.move_to(write, i);
    ++write;
  }
  live_.resize(write);
  pending_.erase_if([id](const PendingRequest& p) { return p.session == id; });
}

void Simulator::debug_check_capacity_total() const {
#ifndef NDEBUG
  std::uint64_t rescan = 0;
  for (const std::uint32_t slots : capacity_slots_) rescan += slots;
  assert(rescan == total_capacity_slots_ &&
         "Simulator: capacity ±delta diverged from a full rescan");
#endif
}

void Simulator::set_box_online(model::BoxId box, bool online) {
  OBS_SPAN("sim/box_churn");
  if (box >= profile_.size())
    throw std::out_of_range("Simulator::set_box_online");
  if (online_[box] == online) return;
  online_[box] = online;
  // ±delta, not a rescan: churn is per-event, and an O(n) sweep here was a
  // round-loop hot spot of its own at production n with per-round failures.
  const std::uint32_t was = capacity_slots_[box];
  const std::uint32_t is = online ? nominal_capacity_[box] : 0u;
  capacity_slots_[box] = is;
  total_capacity_slots_ = total_capacity_slots_ - was + is;
  debug_check_capacity_total();

  if (online) {
    busy_until_[box] = now_;  // rejoins idle; static storage is intact
    if (sparse_ != nullptr)
      sparse_->on_box_online(box, allocation_.stored(box));
    return;  // a recovery changes no RunReport count: nothing to publish
  }

  ++report_.box_failures;
  // Volatile cache dies with the box; the sparse index also needs to strip
  // the box from the rows of every stripe it could serve.
  scratch_cache_stripes_.clear();
  cache_.remove_box(box,
                    sparse_ != nullptr ? &scratch_cache_stripes_ : nullptr);
  if (sparse_ != nullptr)
    sparse_->on_box_offline(box, allocation_.stored(box),
                            scratch_cache_stripes_);

  // Abort the playback the box was watching (only its last session can
  // still be running) and every session that relied on it as the
  // downloading requester (the §4 relay channel). Ascending id order keeps
  // the CSR slot recycling order independent of how the set was gathered.
  std::vector<SessionId> doomed;
  if (last_session_[box] != kInvalidSession)
    doomed.push_back(last_session_[box]);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_.requester[i] == box) doomed.push_back(live_.session[i]);
  }
  pending_.for_each([&](const PendingRequest& p) {
    if (p.requester == box) doomed.push_back(p.session);
  });
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  for (const SessionId id : doomed) abort_session(id);
  publish();
}

void Simulator::publish() {
  struct Handles {
    std::array<obs::Counter*, kReportCounters.size()> counters{};
    obs::Counter* rounds = nullptr;
    obs::Histogram* active_requests = nullptr;
  };
  static const Handles handles = [] {
    auto& registry = obs::MetricsRegistry::global();
    Handles resolved;
    for (std::size_t i = 0; i < kReportCounters.size(); ++i)
      resolved.counters[i] = &registry.counter(kReportCounters[i].metric);
    resolved.rounds = &registry.counter(kRoundsMetric);
    resolved.active_requests =
        &registry.histogram(kActiveRequestsMetric, obs::pow2_bounds(16));
    return resolved;
  }();

  for (std::size_t i = 0; i < kReportCounters.size(); ++i) {
    const std::uint64_t value = report_.*kReportCounters[i].field;
    if (value == published_.counts[i]) continue;
    handles.counters[i]->add(value - published_.counts[i]);
    published_.counts[i] = value;
  }
  if (report_.rounds == published_.rounds) return;
  // step() publishes every round, so the rounds grew by one and
  // active_requests by one |Y|: the growth of its sum, exact because the
  // samples are integers.
  const double active_sum = report_.active_requests.sum();
  handles.rounds->add(
      static_cast<std::uint64_t>(report_.rounds - published_.rounds));
  handles.active_requests->observe(
      static_cast<std::uint64_t>(active_sum - published_.active_requests_sum));
  published_.rounds = report_.rounds;
  published_.active_requests_sum = active_sum;
}

void Simulator::step(const std::vector<Demand>& demands) {
  if (stalled_ && options_.strict) return;

  // 1. Sessions ending now free their boxes and leave their swarms.
  end_events_.take_through(now_, [this](SessionId id) {
    const Session& session = sessions_[id];
    if (session.aborted) return;  // churn already settled this one
    swarms_.leave(session.video);
    ++report_.sessions_completed;
  });

  // 2. Freeze f(t) for the growth rule, then 3./4. admit demands.
  {
    OBS_SPAN("sim/admit");
    swarms_.begin_round(now_);
    for (const Demand& demand : demands) admit(demand);
  }

  // 5. Activate requests issued this round; drop expired cache entries.
  activate_pending();
  {
    OBS_SPAN("sim/cache_prune");
    cache_.prune(now_, sparse_ != nullptr ? &expired_ : nullptr);
  }

  // 6. Connection matching for this round.
  report_.active_requests.add(static_cast<double>(live_.size()));
  solve_round();

  // 7. Retire requests whose final chunk was delivered.
  if (!(stalled_ && options_.strict)) retire_completed();

  report_.peak_swarm = swarms_.peak_size();
  report_.rounds = now_ + 1;
  publish();
  // End-of-round time-series sample (one relaxed load when disabled). The
  // label is the round just simulated.
  if (obs::RoundSeries::active()) obs::RoundSeries::tick(now_);
  ++now_;
}

RunReport Simulator::run(workload::DemandGenerator& generator,
                         model::Round rounds) {
  for (model::Round t = 0; t < rounds; ++t) {
    const std::vector<Demand> demands = generator.demands(*this);
    step(demands);
    if (stalled_ && options_.strict) break;
  }
  return report_;
}

}  // namespace p2pvod::sim
