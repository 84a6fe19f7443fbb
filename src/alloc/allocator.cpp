#include "alloc/allocator.hpp"

#include <stdexcept>
#include <string>

#include "alloc/demand_proportional.hpp"
#include "alloc/full_replication.hpp"
#include "alloc/independent.hpp"
#include "alloc/lp_greedy.hpp"
#include "alloc/permutation.hpp"
#include "alloc/round_robin.hpp"
#include "alloc/zone_local.hpp"

namespace p2pvod::alloc {

StorageSlots storage_for_replicas(const char* scheme,
                                  const model::Catalog& catalog,
                                  const model::CapacityProfile& profile,
                                  std::uint32_t k) {
  StorageSlots slots;
  slots.per_box = profile.storage_slot_counts(catalog.stripes_per_video());
  for (const std::uint32_t count : slots.per_box) slots.total += count;
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(k) * catalog.stripe_count();
  if (replicas > slots.total) {
    throw std::invalid_argument(std::string(scheme) +
                                ": k*m*c replicas exceed d*n*c slots");
  }
  return slots;
}

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kPermutation:
      return "permutation";
    case Scheme::kIndependent:
      return "independent";
    case Scheme::kRoundRobin:
      return "round-robin";
    case Scheme::kFullReplication:
      return "full-replication";
    case Scheme::kDemandProportional:
      return "demand-proportional";
    case Scheme::kZoneLocalFirst:
      return "zone-local-first";
    case Scheme::kLpGreedy:
      return "lp-greedy";
  }
  return "unknown";
}

std::unique_ptr<Allocator> make_allocator(Scheme scheme) {
  switch (scheme) {
    case Scheme::kPermutation:
      return std::make_unique<PermutationAllocator>();
    case Scheme::kIndependent:
      return std::make_unique<IndependentAllocator>();
    case Scheme::kRoundRobin:
      return std::make_unique<RoundRobinAllocator>();
    case Scheme::kFullReplication:
      return std::make_unique<FullReplicationAllocator>();
    case Scheme::kDemandProportional:
      return std::make_unique<DemandProportionalAllocator>();
    case Scheme::kZoneLocalFirst:
      return std::make_unique<ZoneLocalFirstAllocator>();
    case Scheme::kLpGreedy:
      return std::make_unique<LpGreedyAllocator>();
  }
  throw std::logic_error("make_allocator: bad scheme");
}

}  // namespace p2pvod::alloc
