#include "sim/cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace p2pvod::sim {

void CacheIndex::reset(std::uint32_t box_count, std::uint32_t stripe_count,
                       model::Round window) {
  if (window <= 0) throw std::invalid_argument("CacheIndex: window <= 0");
  pool_.clear();
  free_.clear();
  stripe_head_.assign(stripe_count, kNone);
  box_head_.assign(box_count, kNone);
  calendar_.clear();
  window_ = window;
  entries_ = 0;
}

void CacheIndex::grant(model::StripeId stripe, model::BoxId box,
                       model::Round entry) {
  if (stripe >= stripe_head_.size() || box >= box_head_.size())
    throw std::out_of_range("CacheIndex::grant");
  if (free_.empty()) {
    pool_.emplace_back();
    // Room for every slot on the free list: freeing never allocates.
    free_.reserve(pool_.capacity());
    free_.push_back(static_cast<std::uint32_t>(pool_.size() - 1));
  }
  const std::uint32_t id = free_.back();
  calendar_.add(entry + window_ + 1, id);  // if this throws, the slot stays free
  free_.pop_back();
  Slot& slot = pool_[id];
  slot.entry = entry;
  slot.stripe = stripe;
  slot.box = box;
  slot.live = true;
  slot.by_stripe = {kNone, stripe_head_[stripe]};
  if (stripe_head_[stripe] != kNone)
    pool_[stripe_head_[stripe]].by_stripe.prev = id;
  stripe_head_[stripe] = id;
  slot.by_box = {kNone, box_head_[box]};
  if (box_head_[box] != kNone) pool_[box_head_[box]].by_box.prev = id;
  box_head_[box] = id;
  ++entries_;
}

void CacheIndex::unlink(std::uint32_t id) {
  Slot& slot = pool_[id];
  if (slot.by_stripe.prev != kNone) {
    pool_[slot.by_stripe.prev].by_stripe.next = slot.by_stripe.next;
  } else {
    stripe_head_[slot.stripe] = slot.by_stripe.next;
  }
  if (slot.by_stripe.next != kNone)
    pool_[slot.by_stripe.next].by_stripe.prev = slot.by_stripe.prev;
  if (slot.by_box.prev != kNone) {
    pool_[slot.by_box.prev].by_box.next = slot.by_box.next;
  } else {
    box_head_[slot.box] = slot.by_box.next;
  }
  if (slot.by_box.next != kNone)
    pool_[slot.by_box.next].by_box.prev = slot.by_box.prev;
  slot.live = false;
  --entries_;
}

std::size_t CacheIndex::collect_servers(model::StripeId stripe,
                                        model::Round issue, model::Round now,
                                        model::BoxId exclude,
                                        std::vector<model::BoxId>& out) const {
  if (stripe >= stripe_head_.size())
    throw std::out_of_range("CacheIndex::collect_servers");
  const model::Round oldest = now - window_;
  std::size_t appended = 0;
  for (std::uint32_t id = stripe_head_[stripe]; id != kNone;
       id = pool_[id].by_stripe.next) {
    const Slot& slot = pool_[id];
    if (slot.entry >= oldest && slot.entry < issue && slot.box != exclude) {
      out.push_back(slot.box);
      ++appended;
    }
  }
  return appended;
}

std::uint64_t CacheIndex::remove_box(model::BoxId box,
                                     std::vector<model::StripeId>* affected) {
  if (box >= box_head_.size()) throw std::out_of_range("CacheIndex::remove_box");
  const std::size_t first = affected != nullptr ? affected->size() : 0;
  std::uint64_t removed = 0;
  while (box_head_[box] != kNone) {
    const std::uint32_t id = box_head_[box];
    if (affected != nullptr) affected->push_back(pool_[id].stripe);
    unlink(id);  // the slot waits for its calendar event to be freed
    ++removed;
  }
  if (affected != nullptr) {
    const auto from = affected->begin() + static_cast<std::ptrdiff_t>(first);
    std::sort(from, affected->end());
    affected->erase(std::unique(from, affected->end()), affected->end());
  }
  return removed;
}

void CacheIndex::prune(model::Round now, std::vector<CacheExpiry>* expired) {
  calendar_.take_through(now, [&](std::uint32_t id) {
    const Slot& slot = pool_[id];
    if (slot.live) {
      if (expired != nullptr)
        expired->push_back({slot.stripe, slot.box, slot.entry});
      unlink(id);
    }
    free_.push_back(id);  // the slot's one event: it is free either way
  });
}

}  // namespace p2pvod::sim
