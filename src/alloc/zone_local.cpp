#include "alloc/zone_local.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2pvod::alloc {

namespace {

/// Split `count` replicas across zones proportionally to zone population
/// (largest remainder, ties toward lower zone ids), each quota capped at the
/// zone's size so a stripe never needs two replicas in one box of the zone.
/// Σ sizes = n ≥ count (count ≤ n), so the split always succeeds.
std::vector<std::uint32_t> zone_quotas(std::uint32_t count,
                                       const std::vector<std::uint32_t>& sizes,
                                       std::uint32_t boxes) {
  const auto zones = static_cast<std::uint32_t>(sizes.size());
  std::vector<std::uint32_t> quota(zones, 0);
  std::vector<double> fraction(zones, 0.0);
  std::uint32_t assigned = 0;
  for (std::uint32_t z = 0; z < zones; ++z) {
    const double ideal = static_cast<double>(count) *
                         static_cast<double>(sizes[z]) /
                         static_cast<double>(boxes);
    quota[z] = std::min(static_cast<std::uint32_t>(std::floor(ideal)),
                        sizes[z]);
    fraction[z] = ideal - std::floor(ideal);
    assigned += quota[z];
  }
  while (assigned < count) {
    std::uint32_t best = zones;
    for (std::uint32_t z = 0; z < zones; ++z) {
      if (quota[z] >= sizes[z]) continue;
      if (best == zones || fraction[z] > fraction[best]) best = z;
    }
    if (best == zones)
      throw std::logic_error("ZoneLocalFirstAllocator: quota overflow");
    ++quota[best];
    fraction[best] -= 1.0;
    ++assigned;
  }
  return quota;
}

}  // namespace

Allocation ZoneLocalFirstAllocator::allocate(
    const model::Catalog& catalog, const model::CapacityProfile& profile,
    std::uint32_t k, util::Rng& rng) const {
  return allocate(catalog, profile, k, rng, PlacementContext{});
}

Allocation ZoneLocalFirstAllocator::allocate(
    const model::Catalog& catalog, const model::CapacityProfile& profile,
    std::uint32_t k, util::Rng& /*rng*/,
    const PlacementContext& context) const {
  if (k == 0) throw std::invalid_argument("ZoneLocalFirstAllocator: k == 0");
  const std::uint32_t n = profile.size();
  if (k > n) {
    throw std::invalid_argument(
        "ZoneLocalFirstAllocator: k > n would duplicate a stripe within a "
        "box");
  }
  if (context.topology != nullptr && context.topology->box_count() != n)
    throw std::invalid_argument(
        "ZoneLocalFirstAllocator: topology/profile size mismatch");
  const std::uint32_t c = catalog.stripes_per_video();
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();
  std::vector<std::uint32_t> free_slots =
      storage_for_replicas("ZoneLocalFirstAllocator", catalog, profile, k)
          .per_box;

  const std::vector<std::uint32_t> counts = proportional_replica_counts(
      catalog.video_count(), k, context.demand, /*max_per_video=*/n);

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
  std::vector<std::uint32_t> sizes(zones);
  for (std::uint32_t z = 0; z < zones; ++z)
    sizes[z] = static_cast<std::uint32_t>(members[z].size());

  StripeGroups groups;
  groups.offsets.reserve(static_cast<std::size_t>(catalog.stripe_count()) + 1);
  groups.boxes.reserve(replicas);
  std::vector<std::uint64_t> zone_cursor(zones, 0);
  std::uint64_t spill_cursor = 0;

  // One global replica placement onto any box with a free slot (the spill
  // path once a zone's storage is exhausted).
  const auto place_spill = [&]() {
    std::uint32_t probes = 0;
    while (free_slots[spill_cursor % n] == 0) {
      ++spill_cursor;
      if (++probes > n)
        throw std::logic_error("ZoneLocalFirstAllocator: no free slot found");
    }
    const auto box = static_cast<model::BoxId>(spill_cursor % n);
    --free_slots[box];
    groups.boxes.push_back(box);
    ++spill_cursor;
  };

  // Stripe ids run video by video (catalog.stripe_id), so the groups close
  // in stripe order.
  for (model::VideoId v = 0; v < catalog.video_count(); ++v) {
    const std::vector<std::uint32_t> quota = zone_quotas(counts[v], sizes, n);
    for (std::uint32_t index = 0; index < c; ++index) {
      for (std::uint32_t z = 0; z < zones; ++z) {
        for (std::uint32_t j = 0; j < quota[z]; ++j) {
          // Pin to the zone while it has storage; spill globally otherwise.
          std::uint32_t probes = 0;
          bool placed = false;
          while (probes < sizes[z]) {
            const model::BoxId box =
                members[z][zone_cursor[z] % sizes[z]];
            ++zone_cursor[z];
            ++probes;
            if (free_slots[box] > 0) {
              --free_slots[box];
              groups.boxes.push_back(box);
              placed = true;
              break;
            }
          }
          if (!placed) place_spill();
        }
      }
      groups.end_group();
    }
  }
  return Allocation(n, catalog.stripe_count(), std::move(groups));
}

}  // namespace p2pvod::alloc
