// Round calendar: events bucketed by the round they fall due.
//
// The simulator schedules three kinds of events by round: requests that
// activate at their issue round, sessions that end, and cache entries that
// leave the retention window. Each falls due a bounded number of rounds
// ahead (§3: requests are issued at t or t+1; §2.2: a session and a cache
// entry last T rounds), so one bucket per round in a ring that covers the
// horizon costs O(1) per event and per round. A std::map keyed by round
// costs a node and a logarithmic lookup per event instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "model/ids.hpp"

namespace p2pvod::sim {

/// Events of type T by round. The ring holds one bucket per round from the
/// oldest round take_through() has not passed to the furthest round added,
/// and doubles when an event lands beyond it, so any horizon fits; memory is
/// one bucket per round of that horizon.
template <typename T>
class RoundCalendar {
 public:
  /// Schedule `event` for `round`. An event for a round that take_through()
  /// has already passed falls due at the next call, ahead of later rounds.
  void add(model::Round round, T event) {
    if (round < next_) {
      late_.emplace_back(round, std::move(event));
      return;
    }
    const auto ahead = static_cast<std::uint64_t>(round) -
                       static_cast<std::uint64_t>(next_);
    if (ahead >= ring_.size()) grow(ahead);
    ring_[bucket_of(round)].push_back(std::move(event));
    ++ring_events_;
  }

  /// Visit every event of a round <= `round`, by round and then in the order
  /// added, and drop them. If `visit` throws, the round it was visiting keeps
  /// all its events, and the next call visits them again.
  template <typename Visit>
  void take_through(model::Round round, Visit&& visit) {
    if (!late_.empty()) take_late(round, visit);
    while (next_ <= round) {
      if (ring_events_ == 0) {
        next_ = round + 1;
        return;
      }
      std::vector<T>& bucket = ring_[bucket_of(next_)];
      for (T& event : bucket) visit(event);
      ring_events_ -= bucket.size();
      bucket.clear();
      ++next_;
    }
  }

  /// Visit every event not yet taken, in no particular order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const std::vector<T>& bucket : ring_) {
      for (const T& event : bucket) visit(event);
    }
    for (const auto& late : late_) visit(late.second);
  }

  /// Drop every event not yet taken that `pred` holds for.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    for (std::vector<T>& bucket : ring_)
      ring_events_ -= std::erase_if(bucket, pred);
    std::erase_if(late_,
                  [&pred](const auto& late) { return pred(late.second); });
  }

  /// Drop every event and start over at round 0, as constructed; the ring
  /// and its buckets keep their storage. Events still come out by round and
  /// then in the order added, whatever the ring's size.
  void clear() noexcept {
    for (std::vector<T>& bucket : ring_) bucket.clear();
    late_.clear();
    next_ = 0;
    ring_events_ = 0;
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  [[nodiscard]] std::size_t bucket_of(model::Round round) const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(round) &
                                    (ring_.size() - 1));
  }

  /// Resize the ring to a power of two above `ahead`, keeping each pending
  /// round's bucket. Leaves the calendar unchanged if allocation throws.
  void grow(std::uint64_t ahead) {
    if (ahead >= ring_.max_size() / 2)
      throw std::length_error("RoundCalendar: round too far ahead");
    std::size_t size = std::max(kMinBuckets, ring_.size() * 2);
    while (size <= ahead) size *= 2;
    std::vector<std::vector<T>> ring(size);
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const model::Round round = next_ + static_cast<model::Round>(i);
      ring[static_cast<std::uint64_t>(round) & (size - 1)] =
          std::move(ring_[bucket_of(round)]);
    }
    ring_.swap(ring);
  }

  template <typename Visit>
  void take_late(model::Round round, Visit& visit) {
    std::stable_sort(
        late_.begin(), late_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const auto due =
        std::find_if(late_.begin(), late_.end(),
                     [round](const auto& late) { return late.first > round; });
    for (auto it = late_.begin(); it != due; ++it) visit(it->second);
    late_.erase(late_.begin(), due);
  }

  std::vector<std::vector<T>> ring_;  ///< size 0 or a power of two
  /// Events added for a round take_through() had passed, with their rounds.
  std::vector<std::pair<model::Round, T>> late_;
  model::Round next_ = 0;  ///< the oldest round take_through() has not passed
  std::size_t ring_events_ = 0;
};

}  // namespace p2pvod::sim
