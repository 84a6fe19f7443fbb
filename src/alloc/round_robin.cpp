#include "alloc/round_robin.hpp"

#include <stdexcept>

namespace p2pvod::alloc {

Allocation RoundRobinAllocator::allocate(const model::Catalog& catalog,
                                         const model::CapacityProfile& profile,
                                         std::uint32_t k,
                                         util::Rng& /*rng*/) const {
  if (k == 0) throw std::invalid_argument("RoundRobinAllocator: k == 0");
  const std::uint32_t n = profile.size();
  if (k > n) {
    throw std::invalid_argument(
        "RoundRobinAllocator: k > n would duplicate a stripe within a box");
  }
  std::vector<std::uint32_t> free_slots =
      storage_for_replicas("RoundRobinAllocator", catalog, profile, k)
          .per_box;
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();

  StripeGroups groups;
  groups.offsets.reserve(static_cast<std::size_t>(catalog.stripe_count()) + 1);
  groups.boxes.reserve(replicas);
  std::uint64_t cursor = 0;
  for (model::StripeId s = 0; s < catalog.stripe_count(); ++s) {
    for (std::uint32_t j = 0; j < k; ++j) {
      // Advance to the next box with a free slot; total replicas fit, so a
      // free slot always exists within n probes.
      std::uint32_t probes = 0;
      while (free_slots[cursor % n] == 0) {
        ++cursor;
        if (++probes > n)
          throw std::logic_error("RoundRobinAllocator: no free slot found");
      }
      const auto box = static_cast<model::BoxId>(cursor % n);
      --free_slots[box];
      groups.boxes.push_back(box);
      ++cursor;
    }
    groups.end_group();
  }
  return Allocation(n, catalog.stripe_count(), std::move(groups));
}

}  // namespace p2pvod::alloc
