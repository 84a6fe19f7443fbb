// Playback-cache availability index.
//
// §1.1: "a box stores the video it is playing, as data arrives, in a cache
// ... this cache contains all the data most recently viewed up to a video
// file size." §2.2 turns that into the availability rule we index here: the
// data at position (t - t_i) of stripe s is possessed by every box whose own
// request for s was issued at t_j with  t - T <= t_j < t_i  (strictly earlier
// joiners still inside the retention window).
//
// The index stores the cache grants (box, stripe, entry round) and answers
// "who can serve request (s, t_i) at round t", excluding the requester
// itself. Upkeep is O(1) per entry that changes, whatever the catalog's m·c
// stripes, and makes no heap allocation once the pool has grown to the
// peak entry count:
//
//   - every entry lives in one pool, linked into two intrusive doubly
//     linked lists: its stripe's (what collect_servers() walks) and its
//     box's (what remove_box() walks). Unlinking is O(1), with no search;
//   - an expiry calendar (a RoundCalendar of pool ids) keyed by the round an
//     entry leaves the window (entry + window + 1): prune() visits only the
//     entries that leave, in calendar order.
//
// Slot lifetime: a pool slot goes back to the free list only when its own
// calendar event fires. An entry that dies with its box (remove_box) is
// unlinked at once but keeps its slot, marked dead, until that event; so a
// stale event can never name a recycled slot and drop a newer entry.
//
// The order of a stripe's list is not meaningful (a slot is pushed at the
// head and unlinked from anywhere): both users of collect_servers() sort
// what it appends (the dense ConnectionProblem build and the CSR rows). The
// orders the index does promise come from elsewhere: prune() reports in
// calendar order, remove_box() sorts the stripes it reports.
//
// The calendar is the simulator's only record of the retention window: the
// CSR engine consumes the expiries prune() reports instead of keeping its
// own.
#pragma once

#include <cstdint>
#include <vector>

#include "model/ids.hpp"
#include "sim/calendar.hpp"

namespace p2pvod::sim {

/// A cache entry that left the retention window: `box` no longer serves
/// `stripe` from the entry granted at round `entry`.
struct CacheExpiry {
  model::StripeId stripe;
  model::BoxId box;
  model::Round entry;
};

class CacheIndex {
 public:
  CacheIndex() = default;
  /// Boxes are ids below `box_count`; grant() and remove_box() throw
  /// std::out_of_range for any other id.
  CacheIndex(std::uint32_t box_count, std::uint32_t stripe_count,
             model::Round window) {
    reset(box_count, stripe_count, window);
  }

  /// Drop every entry and pending expiry and re-size for `box_count` boxes,
  /// `stripe_count` stripes and `window`, as constructed: the pool and the
  /// free list are empty, so slot ids restart at 0; the pool, the lists'
  /// heads and the calendar keep their storage. Throws
  /// std::invalid_argument for a window <= 0, leaving the index as it was.
  void reset(std::uint32_t box_count, std::uint32_t stripe_count,
             model::Round window);

  /// Record that `box` holds the stream of `stripe` as if started at `entry`.
  void grant(model::StripeId stripe, model::BoxId box, model::Round entry);

  /// Append to `out` every box that, per the §2.2 rule, possesses the chunk a
  /// request issued at `issue` needs at round `now`; `exclude` (the
  /// requester) is skipped. Returns the number of boxes appended, in no
  /// particular order.
  std::size_t collect_servers(model::StripeId stripe, model::Round issue,
                              model::Round now, model::BoxId exclude,
                              std::vector<model::BoxId>& out) const;

  /// Drop entries that left the retention window (entry < now - window).
  /// When `expired` is non-null, each dropped entry is appended to it, by
  /// expiry round and then in grant order; an entry granted after its expiry
  /// round was pruned is dropped by the next prune. Entries that died with
  /// their box (remove_box) have already left and are never reported.
  void prune(model::Round now, std::vector<CacheExpiry>* expired = nullptr);

  /// Drop every entry of `box` (the box failed: its cache is gone). Returns
  /// the number of entries removed. When `affected` is non-null, the id of
  /// each stripe that lost at least one entry is appended once, in ascending
  /// order (the sparse candidate index needs to know which rows to strip).
  std::uint64_t remove_box(model::BoxId box,
                           std::vector<model::StripeId>* affected = nullptr);

  [[nodiscard]] std::uint64_t entry_count() const noexcept { return entries_; }
  [[nodiscard]] model::Round window() const noexcept { return window_; }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// Intrusive doubly linked list links (pool ids, kNone at the ends).
  struct Links {
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
  };

  /// A pool slot: a live entry, or a dead one awaiting its calendar event.
  struct Slot {
    model::Round entry = 0;
    model::StripeId stripe = model::kInvalidStripe;
    model::BoxId box = model::kInvalidBox;
    Links by_stripe;  ///< in stripe_head_[stripe]'s list while live
    Links by_box;     ///< in box_head_[box]'s list while live
    bool live = false;
  };

  /// Unlink a live slot from both lists and mark it dead; its slot stays
  /// taken until its calendar event fires.
  void unlink(std::uint32_t id);

  std::vector<Slot> pool_;
  std::vector<std::uint32_t> free_;        ///< pool ids ready for reuse
  std::vector<std::uint32_t> stripe_head_; ///< per stripe: first live slot
  std::vector<std::uint32_t> box_head_;    ///< per box: first live slot
  /// Pool ids by expiry round, in grant order: exactly one event per taken
  /// slot, which frees it.
  RoundCalendar<std::uint32_t> calendar_;
  model::Round window_ = 0;
  std::uint64_t entries_ = 0;
};

}  // namespace p2pvod::sim
