#include "alloc/placement.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace p2pvod::alloc {

namespace {

/// Forecast weights normalized to the catalog: empty -> all ones (uniform),
/// otherwise a verified copy. Weights are used raw by the objective (the
/// absolute scale is the saturation point) and ratio-only by the counts.
std::vector<double> forecast_or_uniform(std::uint32_t videos,
                                        std::span<const double> demand) {
  if (demand.empty()) return std::vector<double>(videos, 1.0);
  if (demand.size() != videos)
    throw std::invalid_argument(
        "placement: demand forecast size != catalog video count");
  for (const double w : demand) {
    if (!(w >= 0.0))
      throw std::invalid_argument("placement: negative demand weight");
  }
  return {demand.begin(), demand.end()};
}

/// Per-zone expected demand D_{z,v} = demand[v] * |zone z| / n for one video.
/// With a null topology the single "zone" carries the whole forecast.
std::vector<double> zone_demand_for(const net::Topology* topology,
                                    std::uint32_t boxes, double video_demand) {
  if (topology == nullptr) return {video_demand};
  std::vector<double> out(topology->zone_count());
  for (net::ZoneId z = 0; z < topology->zone_count(); ++z) {
    out[z] = video_demand * static_cast<double>(topology->zone_size(z)) /
             static_cast<double>(boxes);
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> proportional_replica_counts(
    std::uint32_t videos, std::uint32_t k, std::span<const double> demand,
    std::uint32_t max_per_video) {
  if (videos == 0) return {};
  if (k == 0)
    throw std::invalid_argument("proportional_replica_counts: k == 0");
  if (max_per_video == 0)
    throw std::invalid_argument(
        "proportional_replica_counts: max_per_video == 0");
  const std::vector<double> weights = forecast_or_uniform(videos, demand);
  double total_weight = 0.0;
  for (const double w : weights) total_weight += w;
  if (!(total_weight > 0.0))
    throw std::invalid_argument(
        "proportional_replica_counts: forecast weights sum to zero");

  const std::uint64_t budget = static_cast<std::uint64_t>(k) * videos;
  std::vector<std::uint32_t> counts(videos);
  std::vector<double> fraction(videos);
  std::uint64_t assigned = 0;
  for (std::uint32_t v = 0; v < videos; ++v) {
    const double ideal =
        static_cast<double>(budget) * weights[v] / total_weight;
    const double floored = std::floor(ideal);
    counts[v] = static_cast<std::uint32_t>(std::clamp(
        floored, 1.0, static_cast<double>(max_per_video)));
    fraction[v] = ideal - floored;
    assigned += counts[v];
  }

  // The "at least one replica" floor can push the total over budget when the
  // forecast concentrates on few videos; claw the surplus back from the
  // largest counts (ties toward higher video ids, so popular low ranks keep
  // their replicas longest).
  while (assigned > budget) {
    std::uint32_t victim = videos;
    for (std::uint32_t v = 0; v < videos; ++v) {
      if (counts[v] > 1 && (victim == videos || counts[v] >= counts[victim]))
        victim = v;
    }
    if (victim == videos) break;  // everything at the floor already
    --counts[victim];
    --assigned;
  }

  // Largest-remainder distribution of the leftover budget, skipping videos at
  // the cap; ties go to the lower video id (the more popular rank under the
  // usual rank-ordered forecasts).
  while (assigned < budget) {
    std::uint32_t best = videos;
    for (std::uint32_t v = 0; v < videos; ++v) {
      if (counts[v] >= max_per_video) continue;
      if (best == videos || fraction[v] > fraction[best]) best = v;
    }
    if (best == videos) break;  // every video at the cap: drop the residue
    ++counts[best];
    fraction[best] -= 1.0;
    ++assigned;
  }
  return counts;
}

double placement_objective(const Allocation& allocation,
                           const model::Catalog& catalog,
                           const PlacementContext& context) {
  if (context.topology != nullptr &&
      context.topology->box_count() != allocation.box_count())
    throw std::invalid_argument(
        "placement_objective: topology/allocation box-count mismatch");
  const std::vector<double> weights =
      forecast_or_uniform(catalog.video_count(), context.demand);
  const std::uint32_t zones =
      context.topology == nullptr ? 1 : context.topology->zone_count();

  double objective = 0.0;
  std::vector<std::uint32_t> per_zone(zones);
  for (model::StripeId s = 0; s < catalog.stripe_count(); ++s) {
    std::fill(per_zone.begin(), per_zone.end(), 0u);
    for (const model::BoxId b : allocation.holders(s)) {
      per_zone[context.topology == nullptr ? 0 : context.topology->zone_of(b)]++;
    }
    const std::vector<double> demand = zone_demand_for(
        context.topology, allocation.box_count(), weights[catalog.video_of(s)]);
    for (std::uint32_t z = 0; z < zones; ++z) {
      objective += std::min(static_cast<double>(per_zone[z]), demand[z]);
    }
  }
  return objective;
}

double optimal_placement_objective(const model::Catalog& catalog,
                                   const model::CapacityProfile& profile,
                                   std::uint32_t k,
                                   const PlacementContext& context,
                                   std::uint64_t max_states) {
  const std::uint32_t n = profile.size();
  const std::uint32_t stripes = catalog.stripe_count();
  if (n == 0 || stripes == 0) return 0.0;
  if (n > 20)
    throw std::invalid_argument(
        "optimal_placement_objective: > 20 boxes cannot be enumerated");
  if (context.topology != nullptr && context.topology->box_count() != n)
    throw std::invalid_argument(
        "optimal_placement_objective: topology/profile box-count mismatch");

  // Pre-flight state estimate, as in flow::min_cost_brute_force: each stripe
  // contributes a factor of 2^n holder subsets.
  double states = 1.0;
  for (std::uint32_t s = 0; s < stripes; ++s) {
    states *= static_cast<double>(std::uint64_t{1} << n);
    if (states > static_cast<double>(max_states))
      throw std::invalid_argument(
          "optimal_placement_objective: instance too large to enumerate");
  }

  const std::uint32_t c = catalog.stripes_per_video();
  const std::vector<double> weights =
      forecast_or_uniform(catalog.video_count(), context.demand);

  std::vector<std::uint32_t> free_slots = profile.storage_slot_counts(c);
  std::uint64_t budget =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();

  // value_of(s, mask): the objective F restricted to stripe s with holder set
  // `mask` — F decomposes per stripe, so only the slot/budget constraints
  // couple the choices and a stripe-by-stripe DFS is exact.
  const auto value_of = [&](model::StripeId s, std::uint32_t mask) {
    const std::vector<double> demand = zone_demand_for(
        context.topology, n, weights[catalog.video_of(s)]);
    const std::uint32_t zones = static_cast<std::uint32_t>(demand.size());
    std::vector<std::uint32_t> per_zone(zones, 0u);
    for (std::uint32_t b = 0; b < n; ++b) {
      if (mask & (1u << b)) {
        per_zone[context.topology == nullptr ? 0
                                             : context.topology->zone_of(b)]++;
      }
    }
    double value = 0.0;
    for (std::uint32_t z = 0; z < zones; ++z)
      value += std::min(static_cast<double>(per_zone[z]), demand[z]);
    return value;
  };

  double best = 0.0;
  const auto recurse = [&](const auto& self, model::StripeId s,
                           double value) -> void {
    if (s == stripes) {
      best = std::max(best, value);
      return;
    }
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      const auto replicas =
          static_cast<std::uint32_t>(std::popcount(mask));
      if (replicas > budget) continue;
      bool fits = true;
      for (std::uint32_t b = 0; b < n && fits; ++b) {
        if ((mask & (1u << b)) && free_slots[b] == 0) fits = false;
      }
      if (!fits) continue;
      for (std::uint32_t b = 0; b < n; ++b) {
        if (mask & (1u << b)) --free_slots[b];
      }
      budget -= replicas;
      self(self, s + 1, value + value_of(s, mask));
      budget += replicas;
      for (std::uint32_t b = 0; b < n; ++b) {
        if (mask & (1u << b)) ++free_slots[b];
      }
    }
  };
  recurse(recurse, 0, 0.0);
  return best;
}

}  // namespace p2pvod::alloc
