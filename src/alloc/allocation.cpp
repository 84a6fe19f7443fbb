#include "alloc/allocation.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace p2pvod::alloc {

Allocation::Allocation(std::uint32_t box_count, std::uint32_t stripe_count,
                       std::vector<Placement> placements)
    : box_count_(box_count), stripe_count_(stripe_count) {
  // Counting sort in both directions. Each offset array first holds counts,
  // then (after an inclusive prefix sum) bucket ends; filling every bucket
  // from its end leaves the offset at the bucket's start.
  slot_usage_.assign(box_count_, 0);
  holder_offsets_.assign(stripe_count_ + 1, 0);
  for (const Placement& p : placements) {
    if (p.box >= box_count_)
      throw std::out_of_range("Allocation: box id out of range");
    if (p.stripe >= stripe_count_)
      throw std::out_of_range("Allocation: stripe id out of range");
    ++slot_usage_[p.box];
    ++holder_offsets_[p.stripe];
  }
  std::partial_sum(holder_offsets_.begin(), holder_offsets_.end(),
                   holder_offsets_.begin());
  holder_data_.resize(placements.size());
  for (const Placement& p : placements)
    holder_data_[--holder_offsets_[p.stripe]] = p.box;

  // Sort each stripe's bucket (about k boxes) and compact it leftwards
  // without its duplicates.
  std::uint32_t kept = 0;
  for (model::StripeId s = 0; s < stripe_count_; ++s) {
    const auto first = holder_data_.begin() + holder_offsets_[s];
    const auto last = holder_data_.begin() + holder_offsets_[s + 1];
    std::sort(first, last);
    holder_offsets_[s] = kept;
    model::BoxId prev = model::kInvalidBox;
    for (auto it = first; it != last; ++it) {
      if (*it == prev) {
        ++duplicates_;
        continue;
      }
      holder_data_[kept++] = prev = *it;
    }
  }
  holder_offsets_[stripe_count_] = kept;
  holder_data_.resize(kept);

  // Second direction: visiting stripes in descending order fills each box's
  // list from its end, so the lists come out sorted and unique.
  stored_offsets_.assign(box_count_ + 1, 0);
  for (const model::BoxId b : holder_data_) ++stored_offsets_[b];
  std::partial_sum(stored_offsets_.begin(), stored_offsets_.end(),
                   stored_offsets_.begin());
  stored_data_.resize(kept);
  for (model::StripeId s = stripe_count_; s-- > 0;) {
    for (std::uint32_t i = holder_offsets_[s]; i < holder_offsets_[s + 1]; ++i)
      stored_data_[--stored_offsets_[holder_data_[i]]] = s;
  }
}

std::span<const model::BoxId> Allocation::holders(model::StripeId s) const {
  if (s >= stripe_count_) throw std::out_of_range("Allocation::holders");
  return {holder_data_.data() + holder_offsets_[s],
          holder_data_.data() + holder_offsets_[s + 1]};
}

std::span<const model::StripeId> Allocation::stored(model::BoxId b) const {
  if (b >= box_count_) throw std::out_of_range("Allocation::stored");
  return {stored_data_.data() + stored_offsets_[b],
          stored_data_.data() + stored_offsets_[b + 1]};
}

bool Allocation::box_has(model::BoxId b, model::StripeId s) const {
  const auto range = stored(b);
  return std::binary_search(range.begin(), range.end(), s);
}

bool Allocation::box_has_video_data(model::BoxId b,
                                    const model::Catalog& catalog,
                                    model::VideoId v) const {
  const auto range = stored(b);
  // Stripes of v occupy the contiguous id interval [v*c, (v+1)*c).
  const model::StripeId lo = catalog.stripe_id(v, 0);
  const auto it = std::lower_bound(range.begin(), range.end(), lo);
  return it != range.end() && *it < lo + catalog.stripes_per_video();
}

std::uint32_t Allocation::slot_usage(model::BoxId b) const {
  if (b >= box_count_) throw std::out_of_range("Allocation::slot_usage");
  return slot_usage_[b];
}

std::uint32_t Allocation::min_replication() const {
  std::uint32_t lo = static_cast<std::uint32_t>(-1);
  for (model::StripeId s = 0; s < stripe_count_; ++s) {
    lo = std::min(lo, holder_offsets_[s + 1] - holder_offsets_[s]);
  }
  return stripe_count_ == 0 ? 0 : lo;
}

std::uint32_t Allocation::max_replication() const {
  std::uint32_t hi = 0;
  for (model::StripeId s = 0; s < stripe_count_; ++s) {
    hi = std::max(hi, holder_offsets_[s + 1] - holder_offsets_[s]);
  }
  return hi;
}

std::uint32_t Allocation::max_slot_usage() const {
  if (slot_usage_.empty()) return 0;
  return *std::max_element(slot_usage_.begin(), slot_usage_.end());
}

double Allocation::mean_slot_usage() const {
  if (slot_usage_.empty()) return 0.0;
  return std::accumulate(slot_usage_.begin(), slot_usage_.end(), 0.0) /
         static_cast<double>(slot_usage_.size());
}

void Allocation::check_integrity(const model::CapacityProfile* profile,
                                 std::uint32_t c) const {
  // Holder lists sorted and unique.
  for (model::StripeId s = 0; s < stripe_count_; ++s) {
    const auto range = holders(s);
    for (std::size_t i = 1; i < range.size(); ++i) {
      if (range[i - 1] >= range[i])
        throw std::logic_error("Allocation: holder list not sorted/unique");
    }
  }
  // Inverse-map consistency: b in holders(s) <=> s in stored(b).
  std::uint64_t forward = 0;
  for (model::StripeId s = 0; s < stripe_count_; ++s) {
    for (const model::BoxId b : holders(s)) {
      if (!box_has(b, s))
        throw std::logic_error("Allocation: holders/stored mismatch");
      ++forward;
    }
  }
  if (forward != stored_data_.size())
    throw std::logic_error("Allocation: relation sizes differ");
  // Slot capacity (when a profile is supplied).
  if (profile != nullptr) {
    if (profile->size() != box_count_)
      throw std::logic_error("Allocation: profile size mismatch");
    for (model::BoxId b = 0; b < box_count_; ++b) {
      if (slot_usage_[b] > profile->storage_slots(b, c))
        throw std::logic_error("Allocation: box over storage capacity");
    }
  }
}

std::string Allocation::describe() const {
  std::ostringstream out;
  out << "allocation boxes=" << box_count_ << " stripes=" << stripe_count_
      << " replicas=" << stored_data_.size()
      << " dup=" << duplicates_ << " repl[min,max]=[" << min_replication()
      << "," << max_replication() << "] load[max]=" << max_slot_usage();
  return out.str();
}

}  // namespace p2pvod::alloc
