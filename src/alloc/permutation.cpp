#include "alloc/permutation.hpp"

#include <stdexcept>
#include <utility>

namespace p2pvod::alloc {

Allocation PermutationAllocator::allocate(const model::Catalog& catalog,
                                          const model::CapacityProfile& profile,
                                          std::uint32_t k,
                                          util::Rng& rng) const {
  if (k == 0) throw std::invalid_argument("PermutationAllocator: k == 0");
  const StorageSlots slots =
      storage_for_replicas("PermutationAllocator", catalog, profile, k);
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();

  // Global slot array: slot j holds the box that owns it. Fisher–Yates
  // applies the same swaps to it that it would apply to the identity, so
  // afterwards entry i is the owner of slot π(i) for a uniform permutation
  // π: replica i goes to that slot. Replica r of stripe s is replica s·k + r,
  // so the first k·m·c entries are the stripes' groups as they stand; the
  // remaining slots stay empty (they model free catalog storage).
  const std::uint32_t stripes = catalog.stripe_count();
  StripeGroups groups;
  groups.boxes.reserve(slots.total);
  for (model::BoxId b = 0; b < profile.size(); ++b)
    groups.boxes.insert(groups.boxes.end(), slots.per_box[b], b);
  rng.shuffle(groups.boxes);
  groups.boxes.resize(replicas);
  groups.offsets.resize(static_cast<std::size_t>(stripes) + 1);
  for (std::size_t s = 0; s < groups.offsets.size(); ++s)
    groups.offsets[s] = static_cast<std::uint32_t>(s * k);
  return Allocation(profile.size(), stripes, std::move(groups));
}

}  // namespace p2pvod::alloc
