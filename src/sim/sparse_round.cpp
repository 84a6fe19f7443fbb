#include "sim/sparse_round.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/trace.hpp"

namespace p2pvod::sim {

SparseRoundState::SparseRoundState(std::uint32_t box_count,
                                   std::uint32_t stripe_count,
                                   double rebuild_fraction)
    : matcher_(box_count),
      slots_of_stripe_(stripe_count),
      latest_issue_(stripe_count, std::numeric_limits<model::Round>::min()),
      rebuild_fraction_(rebuild_fraction),
      stripe_group_(stripe_count, kNoGroup) {
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

void SparseRoundState::process_expiries(
    const std::vector<CacheExpiry>& expired) {
  stats_.expiry_events += expired.size();
  // Bucket by stripe in O(k): number each stripe at its first expiry and
  // count, then scatter the expiries into one contiguous run per bucket.
  bucket_start_.clear();
  for (const CacheExpiry& e : expired) {
    std::uint32_t& bucket = stripe_group_.at(e.stripe);
    if (bucket == kNoGroup) {
      bucket = static_cast<std::uint32_t>(bucket_start_.size());
      bucket_start_.push_back(0);
    }
    ++bucket_start_[bucket];
  }
  std::partial_sum(bucket_start_.begin(), bucket_start_.end(),
                   bucket_start_.begin());
  bucketed_.resize(expired.size());
  for (auto e = expired.rbegin(); e != expired.rend(); ++e)
    bucketed_[--bucket_start_[stripe_group_[e->stripe]]] = *e;
  bucket_start_.push_back(static_cast<std::uint32_t>(expired.size()));

  for (std::size_t bucket = 0; bucket + 1 < bucket_start_.size(); ++bucket) {
    const auto first = bucketed_.begin() + bucket_start_[bucket];
    const auto last = bucketed_.begin() + bucket_start_[bucket + 1];
    const model::StripeId stripe = first->stripe;
    stripe_group_[stripe] = kNoGroup;
    std::sort(first, last, [](const CacheExpiry& x, const CacheExpiry& y) {
      return x.box < y.box;
    });
    for (const std::uint32_t slot : slots_of_stripe_[stripe]) {
      const Slot& s = slots_[slot];
      if (s.dirty) continue;
      scratch_boxes_.clear();
      for (auto e = first; e != last; ++e) {
        if (e->entry < s.issue && e->box != s.requester)
          scratch_boxes_.push_back(e->box);
      }
      stats_.row_patches += scratch_boxes_.size();
      if (csr_.remove_sources(slot, scratch_boxes_) == 0) continue;
      // Only a dropped box can have left the row.
      const std::int32_t assigned = matcher_.assignment(slot);
      if (assigned < 0) continue;
      const auto server = static_cast<std::uint32_t>(assigned);
      if (std::binary_search(scratch_boxes_.begin(), scratch_boxes_.end(),
                             server) &&
          !csr_.contains(slot, server))
        matcher_.unassign(slot);
    }
  }
}

const SparseRoundState::RowGroup& SparseRoundState::row_group(
    model::StripeId stripe, model::Round issue, const RowCollector& collect) {
  std::uint32_t* link = &stripe_group_[stripe];
  while (*link != kNoGroup) {
    const RowGroup& group = groups_[*link];
    if (group.issue == issue) return group;
    link = &groups_[*link].next;
  }
  *link = static_cast<std::uint32_t>(groups_.size());
  scratch_row_.clear();
  collect(stripe, issue, scratch_row_);
  std::sort(scratch_row_.begin(), scratch_row_.end());
  // Run-length encode: each occurrence of a box is one source.
  RowGroup group{stripe, issue,
                 static_cast<std::uint32_t>(group_boxes_.size()), 0, kNoGroup};
  for (std::size_t i = 0; i < scratch_row_.size();) {
    std::size_t j = i + 1;
    while (j < scratch_row_.size() && scratch_row_[j] == scratch_row_[i]) ++j;
    group_boxes_.push_back(scratch_row_[i]);
    group_counts_.push_back(static_cast<std::uint32_t>(j - i));
    i = j;
  }
  group.size = static_cast<std::uint32_t>(group_boxes_.size()) - group.begin;
  groups_.push_back(group);
  return groups_.back();
}

void SparseRoundState::rebuild_dirty(const RowCollector& collect) {
  // Rebuild in ascending slot order: neither the result nor the pool layout
  // depends on the arrival order of dirty marks.
  std::sort(dirty_slots_.begin(), dirty_slots_.end());
  groups_.clear();
  group_boxes_.clear();
  group_counts_.clear();
  for (const std::uint32_t slot : dirty_slots_) {
    Slot& s = slots_[slot];
    if (!s.dirty) continue;  // duplicate queue entry
    s.dirty = false;
    if (!s.live) continue;  // retired while dirty; row already cleared
    const RowGroup& group = row_group(s.stripe, s.issue, collect);
    // The row is the group row minus the requester's own run.
    scratch_boxes_.clear();
    scratch_counts_.clear();
    for (std::uint32_t i = group.begin; i < group.begin + group.size; ++i) {
      if (group_boxes_[i] == s.requester) continue;
      scratch_boxes_.push_back(group_boxes_[i]);
      scratch_counts_.push_back(group_counts_[i]);
    }
    csr_.assign_row(slot, scratch_boxes_, scratch_counts_);
    ++stats_.rows_built;
    const std::int32_t assigned = matcher_.assignment(slot);
    if (assigned >= 0 &&
        !csr_.contains(slot, static_cast<std::uint32_t>(assigned)))
      matcher_.unassign(slot);
  }
  for (const RowGroup& group : groups_) stripe_group_[group.stripe] = kNoGroup;
  dirty_slots_.clear();
  dirty_count_ = 0;
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

    rebuild_dirty(collect);
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

std::vector<std::uint32_t> SparseRoundState::hall_witness(
    std::span<const std::uint32_t> capacity) const {
  std::vector<std::uint32_t> witness;
  bool stalled = false;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot)
    stalled = stalled || (slots_[slot].live && matcher_.assignment(slot) < 0);
  if (!stalled) return witness;

  // Box -> live rows listing it (a transpose of the CSR rows).
  std::vector<std::uint32_t> first(capacity.size() + 1, 0);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].live) continue;
    for (const std::uint32_t box : csr_.row(slot)) ++first[box + 1];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::uint32_t> rows_of(first.back());
  std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].live) continue;
    for (const std::uint32_t box : csr_.row(slot)) rows_of[fill[box]++] = slot;
  }

  // The source side of the residual graph: boxes with a spare slot, then
  // every box serving a row that a reached box lists but does not serve.
  std::vector<bool> reached(capacity.size(), false);
  std::vector<std::uint32_t> queue;
  for (std::uint32_t box = 0; box < capacity.size(); ++box) {
    if (matcher_.degree(box) < capacity[box]) {
      reached[box] = true;
      queue.push_back(box);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t box = queue[head];
    for (std::uint32_t i = first[box]; i < first[box + 1]; ++i) {
      const std::int32_t server = matcher_.assignment(rows_of[i]);
      if (server < 0)
        throw std::logic_error(
            "SparseRoundState::hall_witness: matching is not maximum");
      const auto serving = static_cast<std::uint32_t>(server);
      if (serving == box || reached[serving]) continue;
      reached[serving] = true;
      queue.push_back(serving);
    }
  }

  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].live) continue;
    const auto row = csr_.row(slot);
    if (std::none_of(row.begin(), row.end(),
                     [&](std::uint32_t box) { return reached[box]; }))
      witness.push_back(slot);
  }
  return witness;
}

}  // namespace p2pvod::sim
