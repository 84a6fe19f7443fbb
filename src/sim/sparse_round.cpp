#include "sim/sparse_round.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/trace.hpp"

namespace p2pvod::sim {

SparseRoundState::SparseRoundState(std::uint32_t box_count,
                                   std::uint32_t stripe_count)
    : matcher_(box_count),
      first_class_of_(stripe_count, kNone),
      first_request_of_(box_count, kNone),
      latest_issue_(stripe_count, std::numeric_limits<model::Round>::min()),
      stripe_bucket_(stripe_count, kNone) {}

template <typename Record>
void SparseRoundState::link(std::vector<Record>& records, Link Record::*list,
                            std::uint32_t& head, std::uint32_t id) {
  records[id].*list = Link{kNone, head};
  if (head != kNone) (records[head].*list).prev = id;
  head = id;
}

template <typename Record>
void SparseRoundState::unlink(std::vector<Record>& records, Link Record::*list,
                              std::uint32_t& head, std::uint32_t id) {
  const Link out = records[id].*list;
  if (out.prev != kNone) {
    (records[out.prev].*list).next = out.next;
  } else {
    head = out.next;
  }
  if (out.next != kNone) (records[out.next].*list).prev = out.prev;
}

std::uint32_t SparseRoundState::class_of(model::StripeId stripe,
                                         model::Round issue) {
  // Requests arrive in issue order, and the newest class comes first.
  std::uint32_t& first = first_class_of_[stripe];
  for (std::uint32_t cls = first; cls != kNone;
       cls = classes_[cls].peers.next) {
    if (classes_[cls].issue == issue) return cls;
  }
  std::uint32_t cls = 0;
  if (!free_classes_.empty()) {
    cls = free_classes_.back();
    free_classes_.pop_back();
  } else {
    cls = static_cast<std::uint32_t>(classes_.size());
    classes_.emplace_back();
    csr_.ensure_row(cls);
  }
  SwarmClass& c = classes_[cls];
  c.stripe = stripe;
  c.issue = issue;
  c.live = true;
  link(classes_, &SwarmClass::peers, first, cls);
  // A class dropped before its first solve is still queued.
  if (!c.dirty) {
    c.dirty = true;
    dirty_classes_.push_back(cls);
  }
  return cls;
}

std::uint32_t SparseRoundState::add_request(model::StripeId stripe,
                                            model::Round issue,
                                            model::BoxId requester) {
  if (stripe >= first_class_of_.size() ||
      requester >= first_request_of_.size())
    throw std::out_of_range("SparseRoundState::add_request");
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    matcher_.ensure_rows(slot + 1);
  }
  const std::uint32_t cls = class_of(stripe, issue);
  SwarmClass& c = classes_[cls];
  slots_[slot].cls = cls;
  slots_[slot].requester = requester;
  slots_[slot].live = true;
  link(slots_, &Slot::member, c.first_member, slot);
  ++c.members;
  link(slots_, &Slot::request, first_request_of_[requester], slot);
  matcher_.bind(slot, cls, requester);
  if (!c.dirty) {  // joins a built row as it stands
    const bool self = csr_.contains(cls, requester);
    slots_[slot].self = self;
    edges_ += csr_.row(cls).size() - (self ? 1 : 0);
  }
  latest_issue_[stripe] = std::max(latest_issue_[stripe], issue);
  ++live_count_;
  return slot;
}

void SparseRoundState::remove_request(std::uint32_t slot) {
  Slot& s = slots_.at(slot);
  if (!s.live)
    throw std::logic_error("SparseRoundState::remove_request: slot not live");
  matcher_.unassign(slot);
  const std::uint32_t cls = s.cls;
  SwarmClass& c = classes_[cls];
  if (!c.dirty) edges_ -= csr_.row(cls).size() - (s.self ? 1 : 0);
  s.live = false;
  s.self = false;
  unlink(slots_, &Slot::member, c.first_member, slot);
  --c.members;
  unlink(slots_, &Slot::request, first_request_of_[s.requester], slot);
  free_slots_.push_back(slot);
  --live_count_;
  if (c.members == 0) drop_class(cls);
}

void SparseRoundState::drop_class(std::uint32_t cls) {
  SwarmClass& c = classes_[cls];
  csr_.clear_row(cls);
  unlink(classes_, &SwarmClass::peers, first_class_of_[c.stripe], cls);
  c.live = false;  // a queued dirty flag survives; the build skips dead ones
  free_classes_.push_back(cls);
}

std::uint32_t SparseRoundState::own_requests(std::uint32_t cls,
                                             model::BoxId box, bool self) {
  std::uint32_t count = 0;
  for (std::uint32_t slot = first_request_of_[box]; slot != kNone;
       slot = slots_[slot].request.next) {
    if (slots_[slot].cls != cls) continue;
    slots_[slot].self = self;
    ++count;
  }
  return count;
}

void SparseRoundState::box_entered(std::uint32_t cls, model::BoxId box) {
  edges_ += classes_[cls].members - own_requests(cls, box, true);
}

void SparseRoundState::box_left(std::uint32_t cls, model::BoxId box) {
  edges_ -= classes_[cls].members - own_requests(cls, box, false);
  scratch_unassigned_.clear();
  for (const std::uint32_t slot : matcher_.servings(box)) {
    if (slots_[slot].cls == cls) scratch_unassigned_.push_back(slot);
  }
  for (const std::uint32_t slot : scratch_unassigned_) matcher_.unassign(slot);
}

void SparseRoundState::on_grant(model::StripeId stripe, model::BoxId box,
                                model::Round entry) {
  if (stripe >= first_class_of_.size() || box >= first_request_of_.size())
    throw std::out_of_range("SparseRoundState::on_grant");
  // Only a class issued after the entry gains the box as a source.
  if (entry >= latest_issue_[stripe]) return;
  OBS_SPAN("sim/sparse_grant_patch");
  for (std::uint32_t cls = first_class_of_[stripe]; cls != kNone;
       cls = classes_[cls].peers.next) {
    const SwarmClass& c = classes_[cls];
    // A class not built yet collects the grant from ground truth.
    if (c.dirty || entry >= c.issue) continue;
    if (csr_.add_source(cls, box)) box_entered(cls, box);
    ++stats_.row_patches;
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
      for (std::uint32_t cls = first_class_of_.at(stripe); cls != kNone;
           cls = classes_[cls].peers.next) {
        if (classes_[cls].dirty) continue;
        if (csr_.remove_box(cls, box)) box_left(cls, box);  // a miss: no-op
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
    for (std::uint32_t cls = first_class_of_.at(stripe); cls != kNone;
         cls = classes_[cls].peers.next) {
      if (classes_[cls].dirty) continue;
      if (csr_.add_source(cls, box)) box_entered(cls, box);
      ++stats_.row_patches;
    }
  }
}

void SparseRoundState::process_expiries(
    const std::vector<CacheExpiry>& expired) {
  stats_.expiry_events += expired.size();
  // Bucket by stripe in O(k): number each stripe at its first expiry and
  // count, then scatter the expiries into one contiguous run per bucket.
  bucket_start_.clear();
  for (const CacheExpiry& e : expired) {
    std::uint32_t& bucket = stripe_bucket_.at(e.stripe);
    if (bucket == kNone) {
      bucket = static_cast<std::uint32_t>(bucket_start_.size());
      bucket_start_.push_back(0);
    }
    ++bucket_start_[bucket];
  }
  std::partial_sum(bucket_start_.begin(), bucket_start_.end(),
                   bucket_start_.begin());
  bucketed_.resize(expired.size());
  for (auto e = expired.rbegin(); e != expired.rend(); ++e)
    bucketed_[--bucket_start_[stripe_bucket_[e->stripe]]] = *e;
  bucket_start_.push_back(static_cast<std::uint32_t>(expired.size()));

  for (std::size_t bucket = 0; bucket + 1 < bucket_start_.size(); ++bucket) {
    const auto first = bucketed_.begin() + bucket_start_[bucket];
    const auto last = bucketed_.begin() + bucket_start_[bucket + 1];
    const model::StripeId stripe = first->stripe;
    stripe_bucket_[stripe] = kNone;
    std::sort(first, last, [](const CacheExpiry& x, const CacheExpiry& y) {
      return x.box < y.box;
    });
    for (std::uint32_t cls = first_class_of_[stripe]; cls != kNone;
         cls = classes_[cls].peers.next) {
      const SwarmClass& c = classes_[cls];
      if (c.dirty) continue;
      scratch_boxes_.clear();
      for (auto e = first; e != last; ++e) {
        if (e->entry < c.issue) scratch_boxes_.push_back(e->box);
      }
      stats_.row_patches += scratch_boxes_.size();
      scratch_left_.clear();
      csr_.remove_sources(cls, scratch_boxes_, &scratch_left_);
      for (const model::BoxId box : scratch_left_) box_left(cls, box);
    }
  }
}

void SparseRoundState::build_classes(const RowCollector& collect) {
  for (const std::uint32_t cls : dirty_classes_) {
    SwarmClass& c = classes_[cls];
    c.dirty = false;
    if (!c.live) continue;  // dropped before its first solve
    scratch_row_.clear();
    collect(c.stripe, c.issue, scratch_row_);
    std::sort(scratch_row_.begin(), scratch_row_.end());
    // Run-length encode: each occurrence of a box is one source.
    scratch_boxes_.clear();
    scratch_counts_.clear();
    for (std::size_t i = 0; i < scratch_row_.size();) {
      std::size_t j = i + 1;
      while (j < scratch_row_.size() && scratch_row_[j] == scratch_row_[i])
        ++j;
      scratch_boxes_.push_back(scratch_row_[i]);
      scratch_counts_.push_back(static_cast<std::uint32_t>(j - i));
      i = j;
    }
    csr_.assign_row(cls, scratch_boxes_, scratch_counts_);
    ++stats_.rows_built;
    // Members are new: none is assigned yet.
    std::uint64_t edges =
        static_cast<std::uint64_t>(c.members) * scratch_boxes_.size();
    for (std::uint32_t slot = c.first_member; slot != kNone;
         slot = slots_[slot].member.next) {
      Slot& s = slots_[slot];
      s.self = std::binary_search(scratch_boxes_.begin(), scratch_boxes_.end(),
                                  s.requester);
      if (s.self) --edges;
    }
    edges_ += edges;
  }
  dirty_classes_.clear();
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
    build_classes(collect);
  }

  // Matching repair: everything still assigned is kept; only unmatched
  // slots seed augmenting paths. One exhaustive pass from a valid partial
  // matching yields a maximum matching.
  OBS_SPAN("sim/sparse_augment");
  std::uint32_t served = 0;
  matcher_.begin_pass();
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(slots_.size()); ++slot) {
    if (matcher_.assignment(slot) >= 0) {  // a retired slot is unassigned
      ++served;
      ++stats_.kept_connections;
      continue;
    }
    if (!slots_[slot].live) continue;
    if (matcher_.augment(csr_, capacity, slot)) {
      ++served;
      ++stats_.new_connections;
    }
  }
  matcher_.end_pass();
  return served;
}

std::vector<std::uint32_t> SparseRoundState::row(std::uint32_t slot) const {
  const Slot& s = slots_.at(slot);
  std::vector<std::uint32_t> boxes;
  if (!s.live) return boxes;
  for (const std::uint32_t box : csr_.row(s.cls)) {
    if (box != s.requester) boxes.push_back(box);
  }
  return boxes;
}

std::vector<std::uint32_t> SparseRoundState::hall_witness(
    std::span<const std::uint32_t> capacity) const {
  std::vector<std::uint32_t> witness;
  bool stalled = false;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot)
    stalled = stalled || (slots_[slot].live && matcher_.assignment(slot) < 0);
  if (!stalled) return witness;

  // Box -> live classes listing it (a transpose of the class rows).
  const auto classes = static_cast<std::uint32_t>(classes_.size());
  std::vector<std::uint32_t> first(capacity.size() + 1, 0);
  for (std::uint32_t cls = 0; cls < classes; ++cls) {
    if (!classes_[cls].live) continue;
    for (const std::uint32_t box : csr_.row(cls)) ++first[box + 1];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::uint32_t> classes_of(first.back());
  std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
  for (std::uint32_t cls = 0; cls < classes; ++cls) {
    if (!classes_[cls].live) continue;
    for (const std::uint32_t box : csr_.row(cls)) classes_of[fill[box]++] = cls;
  }

  // The source side of the residual graph: boxes with a spare slot, then
  // every box serving a request that a reached box is a candidate of but
  // does not serve.
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
      for (std::uint32_t slot = classes_[classes_of[i]].first_member;
           slot != kNone; slot = slots_[slot].member.next) {
        if (slots_[slot].requester == box) continue;  // not its candidate
        const std::int32_t server = matcher_.assignment(slot);
        if (server < 0)
          throw std::logic_error(
              "SparseRoundState::hall_witness: matching is not maximum");
        const auto serving = static_cast<std::uint32_t>(server);
        if (serving == box || reached[serving]) continue;
        reached[serving] = true;
        queue.push_back(serving);
      }
    }
  }

  // X: the requests whose class row holds no reached box but, at most,
  // their own requester.
  std::vector<std::uint32_t> reached_in(classes, 0);
  for (std::uint32_t cls = 0; cls < classes; ++cls) {
    if (!classes_[cls].live) continue;
    const auto row = csr_.row(cls);
    reached_in[cls] = static_cast<std::uint32_t>(
        std::count_if(row.begin(), row.end(),
                      [&](std::uint32_t box) { return reached[box]; }));
  }
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Slot& s = slots_[slot];
    if (!s.live) continue;
    const std::uint32_t count = reached_in[s.cls];
    if (count == 0 || (count == 1 && s.self && reached[s.requester]))
      witness.push_back(slot);
  }
  return witness;
}

}  // namespace p2pvod::sim
