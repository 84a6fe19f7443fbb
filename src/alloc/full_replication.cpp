#include "alloc/full_replication.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace p2pvod::alloc {

std::uint32_t FullReplicationAllocator::max_catalog(
    const model::CapacityProfile& profile, std::uint32_t c) {
  if (profile.empty()) return 0;
  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
  for (model::BoxId b = 0; b < profile.size(); ++b) {
    lo = std::min(lo, profile.storage_slots(b, c));
  }
  return lo;  // one slot per video (each box stores exactly one stripe of it)
}

Allocation FullReplicationAllocator::allocate(
    const model::Catalog& catalog, const model::CapacityProfile& profile,
    std::uint32_t /*k*/, util::Rng& /*rng*/) const {
  const std::uint32_t c = catalog.stripes_per_video();
  const std::uint32_t limit = max_catalog(profile, c);
  if (catalog.video_count() > limit) {
    throw std::invalid_argument(
        "FullReplicationAllocator: catalog exceeds per-box storage "
        "(m must be <= min_b floor(d_b*c))");
  }
  std::vector<Placement> placements;
  placements.reserve(static_cast<std::uint64_t>(profile.size()) *
                     catalog.video_count());
  for (model::BoxId b = 0; b < profile.size(); ++b) {
    const std::uint32_t index = b % c;
    for (model::VideoId v = 0; v < catalog.video_count(); ++v) {
      placements.push_back({b, catalog.stripe_id(v, index)});
    }
  }
  return Allocation(profile.size(), catalog.stripe_count(),
                    group_by_stripe(catalog.stripe_count(), placements));
}

}  // namespace p2pvod::alloc
