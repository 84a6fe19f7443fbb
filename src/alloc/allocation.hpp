// Allocation: the static placement of stripe replicas onto boxes.
//
// "An allocation is the process of storing stripe replicas into boxes
// statically" (§1.1). This class is the immutable result: who stores which
// stripe. It maintains both directions of the relation —
//   box -> stripes stored (sorted, deduplicated)
//   stripe -> holder boxes (sorted, deduplicated)
// plus raw slot-usage counts for load-balance experiments (duplicates of the
// same stripe in one box occupy slots but add no serving power).
//
// Construction is a counting sort: O(P + n + S) for P placements, n boxes
// and S stripes, plus one small sort per stripe over its own placements
// (about k of them). Placement order does not matter: any permutation of
// the same placements, duplicates included, builds identical arrays.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "model/ids.hpp"

namespace p2pvod::alloc {

class Allocation {
 public:
  /// `placements[i] = {box, stripe}` for every stored replica.
  struct Placement {
    model::BoxId box;
    model::StripeId stripe;
  };

  Allocation(std::uint32_t box_count, std::uint32_t stripe_count,
             std::vector<Placement> placements);

  [[nodiscard]] std::uint32_t box_count() const noexcept { return box_count_; }
  [[nodiscard]] std::uint32_t stripe_count() const noexcept {
    return stripe_count_;
  }

  /// Boxes holding stripe `s` (sorted, unique).
  [[nodiscard]] std::span<const model::BoxId> holders(
      model::StripeId s) const;
  /// Distinct stripes stored on box `b` (sorted, unique).
  [[nodiscard]] std::span<const model::StripeId> stored(model::BoxId b) const;

  /// True iff box `b` stores stripe `s` (binary search).
  [[nodiscard]] bool box_has(model::BoxId b, model::StripeId s) const;

  /// True iff box `b` stores at least one stripe of video `v` (i.e. "b
  /// possesses data of v" in the §1.3 sense).
  [[nodiscard]] bool box_has_video_data(model::BoxId b,
                                        const model::Catalog& catalog,
                                        model::VideoId v) const;

  /// Slots consumed on box `b` (counting duplicate replicas).
  [[nodiscard]] std::uint32_t slot_usage(model::BoxId b) const;

  /// Number of distinct holders of the least/most replicated stripe.
  [[nodiscard]] std::uint32_t min_replication() const;
  [[nodiscard]] std::uint32_t max_replication() const;
  /// Max and mean slot usage across boxes (load balance, experiment E6).
  [[nodiscard]] std::uint32_t max_slot_usage() const;
  [[nodiscard]] double mean_slot_usage() const;
  /// Replicas wasted as duplicates (same stripe twice in one box).
  [[nodiscard]] std::uint64_t duplicate_replicas() const noexcept {
    return duplicates_;
  }

  /// Verify structural invariants; throws std::logic_error on violation:
  /// inverse maps consistent, holder lists sorted/unique, per-box slot usage
  /// within `profile` capacity (when given).
  void check_integrity(const model::CapacityProfile* profile = nullptr,
                       std::uint32_t c = 1) const;

  [[nodiscard]] std::string describe() const;

 private:
  std::uint32_t box_count_;
  std::uint32_t stripe_count_;
  std::uint64_t duplicates_ = 0;

  // CSR-style storage for both directions.
  std::vector<std::uint32_t> holder_offsets_;
  std::vector<model::BoxId> holder_data_;
  std::vector<std::uint32_t> stored_offsets_;
  std::vector<model::StripeId> stored_data_;
  std::vector<std::uint32_t> slot_usage_;
};

}  // namespace p2pvod::alloc
