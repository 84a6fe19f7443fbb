#include "alloc/permutation.hpp"

#include <stdexcept>
#include <utility>

namespace p2pvod::alloc {

Allocation PermutationAllocator::allocate(const model::Catalog& catalog,
                                          const model::CapacityProfile& profile,
                                          std::uint32_t k,
                                          util::Rng& rng) const {
  if (k == 0) throw std::invalid_argument("PermutationAllocator: k == 0");
  const std::uint32_t c = catalog.stripes_per_video();
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();
  const std::uint64_t slots = profile.total_storage_slots(c);
  if (replicas > slots) {
    throw std::invalid_argument(
        "PermutationAllocator: k*m*c replicas exceed d*n*c slots");
  }

  // Global slot array: slot j holds the box that owns it. Fisher–Yates
  // applies the same swaps to it that it would apply to the identity, so
  // afterwards entry i is the owner of slot π(i) for a uniform permutation
  // π: replica i goes to that slot. Replica r of stripe s is replica s·k + r,
  // so the first k·m·c entries are the stripes' groups as they stand; the
  // remaining slots stay empty (they model free catalog storage).
  const std::uint32_t stripes = catalog.stripe_count();
  StripeGroups groups;
  groups.boxes.reserve(slots);
  for (model::BoxId b = 0; b < profile.size(); ++b)
    groups.boxes.insert(groups.boxes.end(), profile.storage_slots(b, c), b);
  rng.shuffle(groups.boxes);
  groups.boxes.resize(replicas);
  groups.offsets.resize(static_cast<std::size_t>(stripes) + 1);
  for (std::size_t s = 0; s < groups.offsets.size(); ++s)
    groups.offsets[s] = static_cast<std::uint32_t>(s * k);
  return Allocation(profile.size(), stripes, std::move(groups));
}

}  // namespace p2pvod::alloc
