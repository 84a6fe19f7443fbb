#include "alloc/demand_proportional.hpp"

#include <stdexcept>

namespace p2pvod::alloc {

Allocation DemandProportionalAllocator::allocate(
    const model::Catalog& catalog, const model::CapacityProfile& profile,
    std::uint32_t k, util::Rng& rng) const {
  return allocate(catalog, profile, k, rng, PlacementContext{});
}

Allocation DemandProportionalAllocator::allocate(
    const model::Catalog& catalog, const model::CapacityProfile& profile,
    std::uint32_t k, util::Rng& /*rng*/,
    const PlacementContext& context) const {
  if (k == 0)
    throw std::invalid_argument("DemandProportionalAllocator: k == 0");
  const std::uint32_t n = profile.size();
  if (k > n) {
    throw std::invalid_argument(
        "DemandProportionalAllocator: k > n would duplicate a stripe within "
        "a box");
  }
  if (context.topology != nullptr && context.topology->box_count() != n)
    throw std::invalid_argument(
        "DemandProportionalAllocator: topology/profile size mismatch");
  const std::uint32_t c = catalog.stripes_per_video();
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();
  std::vector<std::uint32_t> free_slots =
      storage_for_replicas("DemandProportionalAllocator", catalog, profile,
                           k)
          .per_box;

  const std::vector<std::uint32_t> counts = proportional_replica_counts(
      catalog.video_count(), k, context.demand, /*max_per_video=*/n);

  // Round-robin striping with the per-video counts; Σ counts = k·m keeps the
  // total at (or under, when the n-cap dropped residue) the k·m·c budget.
  // Stripe ids run video by video (catalog.stripe_id), so the groups close in
  // stripe order.
  StripeGroups groups;
  groups.offsets.reserve(static_cast<std::size_t>(catalog.stripe_count()) + 1);
  groups.boxes.reserve(replicas);
  std::uint64_t cursor = 0;
  for (model::VideoId v = 0; v < catalog.video_count(); ++v) {
    for (std::uint32_t index = 0; index < c; ++index) {
      for (std::uint32_t j = 0; j < counts[v]; ++j) {
        std::uint32_t probes = 0;
        while (free_slots[cursor % n] == 0) {
          ++cursor;
          if (++probes > n)
            throw std::logic_error(
                "DemandProportionalAllocator: no free slot found");
        }
        const auto box = static_cast<model::BoxId>(cursor % n);
        --free_slots[box];
        groups.boxes.push_back(box);
        ++cursor;
      }
      groups.end_group();
    }
  }
  return Allocation(n, catalog.stripe_count(), std::move(groups));
}

}  // namespace p2pvod::alloc
