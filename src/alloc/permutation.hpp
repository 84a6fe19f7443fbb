// Random permutation allocation (§2.1).
//
// The k·m·c stripe replicas are mapped through a uniform random permutation π
// onto the Σ_b round(d_b·c) storage slots of the boxes (slot j of the global
// slot array belongs to the box whose slot range contains j). With equal
// storage this stores exactly d·c replicas per box — perfectly balanced by
// construction, which is why Theorem 1 does not need c = Ω(log n) for it.
//
// The allocator shuffles the slot array itself, each entry the box owning
// that slot, so one array holds the permutation and the placement at once:
// its first k·m·c entries are the stripes' replica groups in stripe order
// (stripe s owns entries s·k .. s·k+k-1), and Allocation takes them over as
// they stand. What remains is one Fisher–Yates draw per slot and one
// construction pass (allocation.hpp), with no placement list, no scatter
// back into stripe order, and no buffer beyond the slot array: 4 bytes per
// slot, 64 MB at E16's 10^6 boxes. The draws are exactly those of
// Rng::permutation(slots), and replica i lands in the owner of slot π(i) for
// that π: tests/test_alloc.cpp replays that mapping as its oracle.
#pragma once

#include "alloc/allocator.hpp"

namespace p2pvod::alloc {

class PermutationAllocator final : public Allocator {
 public:
  [[nodiscard]] Allocation allocate(const model::Catalog& catalog,
                                    const model::CapacityProfile& profile,
                                    std::uint32_t k,
                                    util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "permutation"; }
};

}  // namespace p2pvod::alloc
