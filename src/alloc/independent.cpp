#include "alloc/independent.hpp"

#include <stdexcept>
#include <utility>

namespace p2pvod::alloc {

Allocation IndependentAllocator::allocate(const model::Catalog& catalog,
                                          const model::CapacityProfile& profile,
                                          std::uint32_t k,
                                          util::Rng& rng) const {
  if (k == 0) throw std::invalid_argument("IndependentAllocator: k == 0");
  StorageSlots storage =
      storage_for_replicas("IndependentAllocator", catalog, profile, k);
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();
  const std::uint64_t slots = storage.total;

  // "Probability proportional to storage capacity" == draw a uniform global
  // slot index and take its owner (static weights, independent of fill).
  std::vector<model::BoxId> slot_owner;
  slot_owner.reserve(slots);
  for (model::BoxId b = 0; b < profile.size(); ++b)
    slot_owner.insert(slot_owner.end(), storage.per_box[b], b);
  std::vector<std::uint32_t> free_slots = std::move(storage.per_box);

  StripeGroups groups;
  groups.offsets.reserve(static_cast<std::size_t>(catalog.stripe_count()) + 1);
  groups.boxes.reserve(replicas);
  for (model::StripeId s = 0; s < catalog.stripe_count(); ++s) {
    for (std::uint32_t r = 0; r < k; ++r) {
      model::BoxId box = slot_owner[rng.next_below(slots)];
      if (free_slots[box] == 0) {
        if (policy_ == FullBoxPolicy::kFail) {
          throw std::runtime_error(
              "IndependentAllocator: replica fell into a full box");
        }
        do {
          box = slot_owner[rng.next_below(slots)];
        } while (free_slots[box] == 0);
      }
      --free_slots[box];
      groups.boxes.push_back(box);
    }
    groups.end_group();
  }
  return Allocation(profile.size(), catalog.stripe_count(), std::move(groups));
}

}  // namespace p2pvod::alloc
