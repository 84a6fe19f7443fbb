#include "alloc/lp_greedy.hpp"

#include <algorithm>
#include <stdexcept>

namespace p2pvod::alloc {

Allocation LpGreedyAllocator::allocate(const model::Catalog& catalog,
                                       const model::CapacityProfile& profile,
                                       std::uint32_t k, util::Rng& rng) const {
  return allocate(catalog, profile, k, rng, PlacementContext{});
}

Allocation LpGreedyAllocator::allocate(const model::Catalog& catalog,
                                       const model::CapacityProfile& profile,
                                       std::uint32_t k, util::Rng& /*rng*/,
                                       const PlacementContext& context) const {
  if (k == 0) throw std::invalid_argument("LpGreedyAllocator: k == 0");
  const std::uint32_t n = profile.size();
  if (k > n) {
    throw std::invalid_argument(
        "LpGreedyAllocator: k > n would duplicate a stripe within a box");
  }
  if (context.topology != nullptr && context.topology->box_count() != n)
    throw std::invalid_argument(
        "LpGreedyAllocator: topology/profile size mismatch");
  const std::uint32_t stripes = catalog.stripe_count();
  const std::uint64_t replicas = static_cast<std::uint64_t>(k) * stripes;
  std::vector<std::uint32_t> free_slots =
      storage_for_replicas("LpGreedyAllocator", catalog, profile, k).per_box;
  // The holder matrix and the gain scan are Θ(stripes·n); refuse instances
  // where that footprint stops being a placement-time rounding error.
  if (static_cast<std::uint64_t>(stripes) * n > (std::uint64_t{1} << 26)) {
    throw std::invalid_argument(
        "LpGreedyAllocator: stripes*boxes too large for the greedy scan");
  }

  std::vector<double> weights;
  if (context.demand.empty()) {
    weights.assign(catalog.video_count(), 1.0);
  } else {
    if (context.demand.size() != catalog.video_count())
      throw std::invalid_argument(
          "LpGreedyAllocator: demand forecast size != catalog video count");
    for (const double w : context.demand) {
      if (!(w >= 0.0))
        throw std::invalid_argument("LpGreedyAllocator: negative demand");
    }
    weights = context.demand;
  }

  // Zone membership (one all-box pseudo-zone without a topology).
  std::vector<std::vector<model::BoxId>> members;
  if (context.topology == nullptr) {
    members.emplace_back();
    for (model::BoxId b = 0; b < n; ++b) members[0].push_back(b);
  } else {
    for (net::ZoneId z = 0; z < context.topology->zone_count(); ++z)
      members.push_back(context.topology->members(z));
  }
  const auto zones = static_cast<std::uint32_t>(members.size());

  // D_{z,v} = weights[v] · |zone z| / n: where each stripe's coverage
  // saturates per zone.
  std::vector<double> zone_share(zones);
  for (std::uint32_t z = 0; z < zones; ++z) {
    zone_share[z] =
        static_cast<double>(members[z].size()) / static_cast<double>(n);
  }

  std::vector<char> holder(static_cast<std::size_t>(stripes) * n, 0);
  std::vector<std::uint32_t> per_zone(static_cast<std::size_t>(stripes) *
                                          zones,
                                      0);
  std::vector<std::uint32_t> total(stripes, 0);
  std::vector<char> dead(static_cast<std::size_t>(stripes) * zones, 0);

  const auto gain_of = [&](model::StripeId s, std::uint32_t z) {
    const double demand = weights[catalog.video_of(s)] * zone_share[z];
    const auto r =
        static_cast<double>(per_zone[static_cast<std::size_t>(s) * zones + z]);
    return std::min(r + 1.0, demand) - std::min(r, demand);
  };
  // Deterministic box choice inside a zone: most free slots, then lowest id,
  // skipping boxes that are full or already hold the stripe. Returns n when
  // the zone has nothing left to offer this stripe.
  const auto pick_box = [&](model::StripeId s, std::uint32_t z) {
    model::BoxId best = n;
    for (const model::BoxId b : members[z]) {
      if (free_slots[b] == 0 ||
          holder[static_cast<std::size_t>(s) * n + b] != 0)
        continue;
      if (best == n || free_slots[b] > free_slots[best]) best = b;
    }
    return best;
  };

  std::vector<Placement> placements;
  placements.reserve(replicas);
  const auto place = [&](model::StripeId s, std::uint32_t z,
                         model::BoxId box) {
    --free_slots[box];
    holder[static_cast<std::size_t>(s) * n + box] = 1;
    ++per_zone[static_cast<std::size_t>(s) * zones + z];
    ++total[s];
    placements.push_back({box, s});
  };

  // Servability floor: every stripe gets one replica before the budget is
  // spent by gain, placed in its best feasible zone.
  for (model::StripeId s = 0; s < stripes; ++s) {
    std::uint32_t best_zone = zones;
    double best_gain = -1.0;
    for (std::uint32_t z = 0; z < zones; ++z) {
      if (pick_box(s, z) == n) continue;
      const double g = gain_of(s, z);
      if (best_zone == zones || g > best_gain) {
        best_zone = z;
        best_gain = g;
      }
    }
    if (best_zone == zones)
      throw std::logic_error("LpGreedyAllocator: no slot for stripe seed");
    place(s, best_zone, pick_box(s, best_zone));
  }

  // Greedy budget spend: largest marginal gain wins; ties go to the stripe
  // with the fewest replicas, then the lower stripe id, then the lower zone
  // id — so an all-zero-gain run degrades to balanced striping. A pair whose
  // zone can no longer host the stripe is dead for good (slots only shrink,
  // holders only grow); when every pair is dead the residue is dropped,
  // matching proportional_replica_counts.
  std::uint64_t remaining = replicas - stripes;
  while (remaining > 0) {
    model::StripeId best_s = stripes;
    std::uint32_t best_z = 0;
    double best_gain = 0.0;
    for (model::StripeId s = 0; s < stripes; ++s) {
      for (std::uint32_t z = 0; z < zones; ++z) {
        if (dead[static_cast<std::size_t>(s) * zones + z] != 0) continue;
        const double g = gain_of(s, z);
        const bool better =
            best_s == stripes || g > best_gain ||
            (g == best_gain && total[s] < total[best_s]);
        if (better) {
          best_s = s;
          best_z = z;
          best_gain = g;
        }
      }
    }
    if (best_s == stripes) break;  // every pair dead: drop the residue
    const model::BoxId box = pick_box(best_s, best_z);
    if (box == n) {
      dead[static_cast<std::size_t>(best_s) * zones + best_z] = 1;
      continue;
    }
    place(best_s, best_z, box);
    --remaining;
  }
  return Allocation(n, stripes, group_by_stripe(stripes, placements));
}

}  // namespace p2pvod::alloc
