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
// It is built from stripe-major replica groups (StripeGroups): group s lists
// the boxes that store a replica of stripe s, in any order, duplicates
// included. Construction sorts each group and deduplicates it in place into
// the holder lists, then one counting scatter in stripe order fills the
// sorted stored lists: O(P + n + S) for P replicas, n boxes and S stripes,
// plus one sort per group, and no buffer beyond the two result arrays. A
// group of at most 8 boxes (k of them in §2.1: 6 per stripe in the sparse
// benchmark) is sorted by compare-exchange passes with no branch: its boxes
// come in random order, so a comparison sort would mispredict on about
// every element. Longer groups (full replication's n/c holders) use
// std::sort.
//
// Allocators that place stripe by stripe emit groups directly; the others
// (box-major, greedy order) collect Placements and group them with
// group_by_stripe. Any order of the same replicas builds identical arrays.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/capacity.hpp"
#include "model/catalog.hpp"
#include "model/ids.hpp"

namespace p2pvod::alloc {

/// Stripe-major replica groups: stripe s's group is
/// `boxes[offsets[s]] .. boxes[offsets[s + 1] - 1]`, in any order, and a box
/// listed twice stores two replicas of s. `offsets` has one entry per stripe
/// plus one, starts at 0, never decreases and ends at `boxes.size()`.
struct StripeGroups {
  std::vector<std::uint32_t> offsets{0};
  std::vector<model::BoxId> boxes;

  /// Close the next stripe's group: the boxes appended since the last call.
  void end_group() {
    offsets.push_back(static_cast<std::uint32_t>(boxes.size()));
  }
};

/// One stored replica, for allocators that do not place stripe by stripe.
struct Placement {
  model::BoxId box;
  model::StripeId stripe;
};

/// Groups placements by stripe (a counting sort; the order within a stripe
/// is kept). Throws std::out_of_range on a stripe id >= stripe_count.
[[nodiscard]] StripeGroups group_by_stripe(
    std::uint32_t stripe_count, const std::vector<Placement>& placements);

class Allocation {
 public:
  /// Throws std::invalid_argument when `groups.offsets` does not split all
  /// of `groups.boxes` into `stripe_count` groups, and std::out_of_range on
  /// a box id >= box_count.
  Allocation(std::uint32_t box_count, std::uint32_t stripe_count,
             StripeGroups groups);

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
