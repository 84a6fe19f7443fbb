#include "sim/sparse_round.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"

namespace p2pvod::sim {

SparseRoundState::SparseRoundState(std::uint32_t box_count,
                                   std::uint32_t stripe_count,
                                   double rebuild_fraction)
    : matcher_(box_count),
      slots_of_stripe_(stripe_count),
      latest_issue_(stripe_count, std::numeric_limits<model::Round>::min()),
      rebuild_fraction_(rebuild_fraction) {
  if (rebuild_fraction < 0.0)
    throw std::invalid_argument("SparseRoundState: rebuild_fraction < 0");
}

std::uint32_t SparseRoundState::add_request(model::StripeId stripe,
                                            model::Round issue,
                                            model::BoxId requester) {
  if (stripe >= slots_of_stripe_.size())
    throw std::out_of_range("SparseRoundState::add_request");
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    csr_.ensure_row(slot);
    matcher_.ensure_rows(slot + 1);
  }
  auto& by_stripe = slots_of_stripe_[stripe];
  slots_[slot] = Slot{stripe, issue, requester,
                      static_cast<std::uint32_t>(by_stripe.size()),
                      /*live=*/true, /*dirty=*/slots_[slot].dirty};
  by_stripe.push_back(slot);
  latest_issue_[stripe] = std::max(latest_issue_[stripe], issue);
  ++live_count_;
  mark_dirty(slot);
  return slot;
}

void SparseRoundState::remove_request(std::uint32_t slot) {
  Slot& s = slots_.at(slot);
  if (!s.live)
    throw std::logic_error("SparseRoundState::remove_request: slot not live");
  matcher_.unassign(slot);
  csr_.clear_row(slot);
  // Swap-pop out of the stripe's slot list; fix the moved slot's back-link.
  auto& by_stripe = slots_of_stripe_[s.stripe];
  const std::uint32_t moved = by_stripe.back();
  by_stripe[s.stripe_pos] = moved;
  slots_[moved].stripe_pos = s.stripe_pos;
  by_stripe.pop_back();
  s.live = false;  // a queued dirty flag survives; rebuilds skip dead slots
  free_slots_.push_back(slot);
  --live_count_;
}

void SparseRoundState::on_grant(model::StripeId stripe, model::BoxId box,
                                model::Round entry) {
  if (stripe >= slots_of_stripe_.size())
    throw std::out_of_range("SparseRoundState::on_grant");
  // Only a row issued after the entry gains the box as a source.
  if (entry >= latest_issue_[stripe]) return;
  OBS_SPAN("sim/sparse_grant_patch");
  for (const std::uint32_t slot : slots_of_stripe_[stripe]) {
    const Slot& s = slots_[slot];
    if (s.dirty) continue;  // rebuild will collect it from ground truth
    if (entry < s.issue && box != s.requester) {
      csr_.add_source(slot, box);
      ++stats_.row_patches;
    }
  }
}

void SparseRoundState::on_box_offline(model::BoxId box,
                                      std::span<const model::StripeId> stored,
                                      std::span<const model::StripeId> cached) {
  OBS_SPAN("sim/sparse_churn_patch");
  scratch_unassigned_.clear();
  matcher_.unassign_box(box, scratch_unassigned_);
  const auto strip = [&](std::span<const model::StripeId> stripes) {
    for (const model::StripeId stripe : stripes) {
      for (const std::uint32_t slot : slots_of_stripe_.at(stripe)) {
        if (slots_[slot].dirty) continue;
        csr_.remove_box(slot, box);  // miss (e.g. own request) is a no-op
        ++stats_.row_patches;
      }
    }
  };
  strip(stored);
  strip(cached);  // may overlap `stored`; second removal is a no-op
}

void SparseRoundState::on_box_online(model::BoxId box,
                                     std::span<const model::StripeId> stored) {
  OBS_SPAN("sim/sparse_churn_patch");
  for (const model::StripeId stripe : stored) {
    for (const std::uint32_t slot : slots_of_stripe_.at(stripe)) {
      const Slot& s = slots_[slot];
      if (s.dirty || s.requester == box) continue;
      csr_.add_source(slot, box);
      ++stats_.row_patches;
    }
  }
}

void SparseRoundState::mark_dirty(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.dirty) return;
  s.dirty = true;
  ++dirty_count_;
  dirty_slots_.push_back(slot);
}

void SparseRoundState::rebuild_row(std::uint32_t slot,
                                   const RowCollector& collect) {
  const Slot& s = slots_[slot];
  scratch_row_.clear();
  collect(s.stripe, s.issue, s.requester, scratch_row_);
  std::sort(scratch_row_.begin(), scratch_row_.end());
  // Run-length encode: each occurrence of a box is one source.
  scratch_boxes_.clear();
  scratch_counts_.clear();
  for (std::size_t i = 0; i < scratch_row_.size();) {
    std::size_t j = i + 1;
    while (j < scratch_row_.size() && scratch_row_[j] == scratch_row_[i]) ++j;
    scratch_boxes_.push_back(scratch_row_[i]);
    scratch_counts_.push_back(static_cast<std::uint32_t>(j - i));
    i = j;
  }
  csr_.assign_row(slot, scratch_boxes_, scratch_counts_);
  ++stats_.rows_built;
  const std::int32_t assigned = matcher_.assignment(slot);
  if (assigned >= 0 &&
      !csr_.contains(slot, static_cast<std::uint32_t>(assigned)))
    matcher_.unassign(slot);
}

void SparseRoundState::process_expiries(
    const std::vector<CacheExpiry>& expired) {
  for (const CacheExpiry& e : expired) {
    ++stats_.expiry_events;
    for (const std::uint32_t slot : slots_of_stripe_.at(e.stripe)) {
      const Slot& s = slots_[slot];
      if (s.dirty) continue;
      if (e.entry >= s.issue || e.box == s.requester) continue;
      ++stats_.row_patches;
      if (csr_.remove_source(slot, e.box) &&
          matcher_.assignment(slot) == static_cast<std::int32_t>(e.box))
        matcher_.unassign(slot);
    }
  }
}

std::uint32_t SparseRoundState::solve(
    std::vector<CacheExpiry>& expired,
    const std::vector<std::uint32_t>& capacity, const RowCollector& collect) {
  {
    OBS_SPAN("sim/sparse_expiry");
    process_expiries(expired);
    expired.clear();
  }

  {
    OBS_SPAN("sim/sparse_rebuild");
    // Fallback: past the threshold, patch bookkeeping costs more than honest
    // collection — rebuild everything. (Equality keeps the all-new first
    // round counted as a plain rebuild of each row, not a "fallback".)
    if (live_count_ > 0 &&
        static_cast<double>(dirty_count_) >
            rebuild_fraction_ * static_cast<double>(live_count_) &&
        dirty_count_ < live_count_) {
      ++stats_.full_rebuilds;
      for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
        if (slots_[slot].live) mark_dirty(slot);
      }
    }

    // Rebuild in ascending slot order: determinism does not depend on the
    // arrival order of dirty marks.
    std::sort(dirty_slots_.begin(), dirty_slots_.end());
    for (const std::uint32_t slot : dirty_slots_) {
      Slot& s = slots_[slot];
      if (!s.dirty) continue;  // duplicate queue entry
      s.dirty = false;
      if (!s.live) continue;  // retired while dirty; row already cleared
      rebuild_row(slot, collect);
    }
    dirty_slots_.clear();
    dirty_count_ = 0;
  }

  // Matching repair: everything still assigned is kept; only unmatched
  // slots seed augmenting paths. One exhaustive pass from a valid partial
  // matching yields a maximum matching.
  OBS_SPAN("sim/sparse_augment");
  std::uint32_t served = 0;
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(slots_.size()); ++slot) {
    if (!slots_[slot].live) continue;
    if (matcher_.assignment(slot) >= 0) {
      ++served;
      ++stats_.kept_connections;
      continue;
    }
    if (matcher_.augment(csr_, capacity, slot)) {
      ++served;
      ++stats_.new_connections;
    }
  }
  return served;
}

}  // namespace p2pvod::sim
