#include "sim/cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace p2pvod::sim {

CacheIndex::CacheIndex(std::uint32_t box_count, std::uint32_t stripe_count,
                       model::Round window)
    : per_stripe_(stripe_count), per_box_(box_count), window_(window) {
  if (window <= 0) throw std::invalid_argument("CacheIndex: window <= 0");
}

void CacheIndex::grant(model::StripeId stripe, model::BoxId box,
                       model::Round entry) {
  if (stripe >= per_stripe_.size() || box >= per_box_.size())
    throw std::out_of_range("CacheIndex::grant");
  per_stripe_[stripe].push_back({box, entry});
  per_box_[box].push_back(stripe);
  calendar_.add(entry + window_ + 1, {stripe, box, entry});
  ++entries_;
}

std::size_t CacheIndex::collect_servers(model::StripeId stripe,
                                        model::Round issue, model::Round now,
                                        model::BoxId exclude,
                                        std::vector<model::BoxId>& out) const {
  if (stripe >= per_stripe_.size())
    throw std::out_of_range("CacheIndex::collect_servers");
  const model::Round oldest = now - window_;
  std::size_t appended = 0;
  for (const Entry& e : per_stripe_[stripe]) {
    if (e.entry >= oldest && e.entry < issue && e.box != exclude) {
      out.push_back(e.box);
      ++appended;
    }
  }
  return appended;
}

std::uint64_t CacheIndex::remove_box(model::BoxId box,
                                     std::vector<model::StripeId>* affected) {
  if (box >= per_box_.size()) throw std::out_of_range("CacheIndex::remove_box");
  std::vector<model::StripeId>& held = per_box_[box];
  const auto removed = static_cast<std::uint64_t>(held.size());
  std::sort(held.begin(), held.end());
  held.erase(std::unique(held.begin(), held.end()), held.end());
  for (const model::StripeId stripe : held) {
    std::erase_if(per_stripe_[stripe],
                  [box](const Entry& e) { return e.box == box; });
    if (affected != nullptr) affected->push_back(stripe);
  }
  held.clear();  // the calendar events of these entries now find nothing
  entries_ -= removed;
  return removed;
}

void CacheIndex::prune(model::Round now, std::vector<CacheExpiry>* expired) {
  calendar_.take_through(now, [&](const CacheExpiry& e) {
    auto& entries = per_stripe_[e.stripe];
    const auto it =
        std::find(entries.begin(), entries.end(), Entry{e.box, e.entry});
    if (it == entries.end()) return;  // died with its box
    entries.erase(it);
    auto& held = per_box_[e.box];
    held.erase(std::find(held.begin(), held.end(), e.stripe));
    --entries_;
    if (expired != nullptr) expired->push_back(e);
  });
}

}  // namespace p2pvod::sim
