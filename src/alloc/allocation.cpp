#include "alloc/allocation.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace p2pvod::alloc {

namespace {

/// Longest group sorted without a comparison sort.
constexpr std::uint32_t kNetworkMax = 8;

/// Puts the smaller of a and b in a. The mask makes the exchange plain
/// arithmetic: GCC compiles the std::min/std::max form of it to a branch.
inline void compare_exchange(model::BoxId& a, model::BoxId& b) noexcept {
  const model::BoxId mask = 0U - static_cast<model::BoxId>(b < a);
  const model::BoxId swap = (a ^ b) & mask;
  a ^= swap;
  b ^= swap;
}

/// Odd-even transposition sort of v[0, len), len <= kNetworkMax: len passes
/// of compare-exchanges on adjacent pairs, with no branch on the data (the
/// loop bounds depend on len alone).
void sort_short(model::BoxId* v, std::uint32_t len) noexcept {
  for (std::uint32_t pass = 0; pass < len; ++pass) {
    for (std::uint32_t i = pass & 1U; i + 1 < len; i += 2)
      compare_exchange(v[i], v[i + 1]);
  }
}

}  // namespace

StripeGroups group_by_stripe(std::uint32_t stripe_count,
                             const std::vector<Placement>& placements) {
  // Counts, then (after an inclusive prefix sum) bucket ends; filling every
  // bucket from its end, in reverse placement order, keeps the placement
  // order within a stripe and leaves each offset at its bucket's start.
  StripeGroups groups;
  groups.offsets.assign(static_cast<std::size_t>(stripe_count) + 1, 0);
  for (const Placement& p : placements) {
    if (p.stripe >= stripe_count)
      throw std::out_of_range("group_by_stripe: stripe id out of range");
    ++groups.offsets[p.stripe];
  }
  std::partial_sum(groups.offsets.begin(), groups.offsets.end(),
                   groups.offsets.begin());
  groups.boxes.resize(placements.size());
  for (auto it = placements.rbegin(); it != placements.rend(); ++it)
    groups.boxes[--groups.offsets[it->stripe]] = it->box;
  return groups;
}

Allocation::Allocation(std::uint32_t box_count, std::uint32_t stripe_count,
                       StripeGroups groups)
    : box_count_(box_count),
      stripe_count_(stripe_count),
      holder_offsets_(std::move(groups.offsets)),
      holder_data_(std::move(groups.boxes)) {
  if (holder_offsets_.size() != static_cast<std::size_t>(stripe_count_) + 1 ||
      holder_offsets_.front() != 0 ||
      holder_offsets_.back() != holder_data_.size())
    throw std::invalid_argument("Allocation: group offsets do not fit");

  // Sort each group and compact it leftwards without its duplicates, which
  // turns the group offsets into holder offsets. Slot usage counts every
  // replica; a box's duplicates are tallied at stored_offsets_[b] so that
  // its distinct count is its slot usage minus them.
  slot_usage_.assign(box_count_, 0);
  stored_offsets_.assign(static_cast<std::size_t>(box_count_) + 1, 0);
  model::BoxId* const data = holder_data_.data();
  std::uint32_t* const usage = slot_usage_.data();
  std::uint32_t* const box_duplicates = stored_offsets_.data();
  const std::size_t total = holder_data_.size();
  std::uint32_t kept = 0;
  std::uint32_t begin = 0;
  for (model::StripeId s = 0; s < stripe_count_; ++s) {
    const std::uint32_t end = holder_offsets_[s + 1];
    if (end < begin || end > total)
      throw std::invalid_argument("Allocation: group offsets do not fit");
    model::BoxId* const group = data + begin;
    const std::uint32_t len = end - begin;
    if (len <= kNetworkMax) {
      sort_short(group, len);
    } else {
      std::sort(group, group + len);
    }
    if (len > 0 && group[len - 1] >= box_count_)
      throw std::out_of_range("Allocation: box id out of range");
    holder_offsets_[s] = kept;
    model::BoxId prev = model::kInvalidBox;
    for (std::uint32_t i = 0; i < len; ++i) {
      const model::BoxId b = group[i];
      ++usage[b];
      if (b == prev) {
        ++box_duplicates[b];
        continue;
      }
      data[kept++] = prev = b;
    }
    begin = end;
  }
  holder_offsets_[stripe_count_] = kept;
  duplicates_ = total - kept;
  holder_data_.resize(kept);

  // Second direction: each stored offset becomes its box's bucket end, and
  // visiting stripes in descending order fills each box's list from its
  // end, so the lists come out sorted and unique with every offset at its
  // bucket's start.
  std::uint32_t stored_end = 0;
  for (model::BoxId b = 0; b < box_count_; ++b) {
    stored_end += slot_usage_[b] - stored_offsets_[b];
    stored_offsets_[b] = stored_end;
  }
  stored_offsets_[box_count_] = stored_end;
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
