// Allocator interface and factory for the schemes of §2.1 plus baselines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/placement.hpp"
#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "util/rng.hpp"

namespace p2pvod::alloc {

/// Which placement scheme to use (DESIGN.md S4).
enum class Scheme {
  kPermutation,         ///< §2.1 random permutation of replicas into slots
  kIndependent,         ///< §2.1 independent box choice per replica
  kRoundRobin,          ///< deterministic striping (test/sanity baseline)
  kFullReplication,     ///< Push-to-Peer-style constant catalog ([22])
  kDemandProportional,  ///< replica count ∝ forecast audience (Tan–Massoulié)
  kZoneLocalFirst,      ///< proportional counts pinned to forecast zones
  kLpGreedy,            ///< greedy coverage maximization of F (placement.hpp)
};

[[nodiscard]] const char* scheme_name(Scheme scheme) noexcept;

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Place k replicas of every stripe of `catalog` onto boxes with the
  /// capacities of `profile`. Throws std::invalid_argument when the replicas
  /// cannot fit (k m c > total slots) or the scheme's preconditions fail.
  [[nodiscard]] virtual Allocation allocate(
      const model::Catalog& catalog, const model::CapacityProfile& profile,
      std::uint32_t k, util::Rng& rng) const = 0;

  /// Context-aware variant: demand-aware schemes read the topology and the
  /// forecast out of `context`; context-blind schemes fall through to the
  /// 4-argument overload (the default here), so every scheme accepts every
  /// context.
  [[nodiscard]] virtual Allocation allocate(
      const model::Catalog& catalog, const model::CapacityProfile& profile,
      std::uint32_t k, util::Rng& rng,
      const PlacementContext& /*context*/) const {
    return allocate(catalog, profile, k, rng);
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

[[nodiscard]] std::unique_ptr<Allocator> make_allocator(Scheme scheme);

/// Each box's storage slots at the catalog's c, read once per allocation
/// (CapacityProfile::storage_slot_counts), and their total.
struct StorageSlots {
  std::vector<std::uint32_t> per_box;
  std::uint64_t total = 0;
};

/// The storage slots that k replicas of every stripe of `catalog` go into.
/// Throws std::invalid_argument, naming `scheme`, when the k·m·c replicas
/// exceed the d·n·c slots.
[[nodiscard]] StorageSlots storage_for_replicas(
    const char* scheme, const model::Catalog& catalog,
    const model::CapacityProfile& profile, std::uint32_t k);

}  // namespace p2pvod::alloc
