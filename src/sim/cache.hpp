// Playback-cache availability index.
//
// §1.1: "a box stores the video it is playing, as data arrives, in a cache
// ... this cache contains all the data most recently viewed up to a video
// file size." §2.2 turns that into the availability rule we index here: the
// data at position (t - t_i) of stripe s is possessed by every box whose own
// request for s was issued at t_j with  t - T <= t_j < t_i  (strictly earlier
// joiners still inside the retention window).
//
// The index stores, per stripe, the cache grants (box, entry round) and
// answers "who can serve request (s, t_i) at round t" — excluding the
// requester itself. Upkeep is in proportion to the entries that change, not
// to the catalog's m·c stripes:
//
//   - an expiry calendar (a RoundCalendar) keyed by the round an entry
//     leaves the window (entry + window + 1): prune() scans only the stripes
//     holding an entry that leaves then, once per leaving entry;
//   - a per-box index of each box's live entries, exact on grant, expiry
//     and removal: remove_box() scans only that box's stripes, once each.
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
  /// Boxes are ids below `box_count`; grant() and remove_box() throw
  /// std::out_of_range for any other id.
  CacheIndex(std::uint32_t box_count, std::uint32_t stripe_count,
             model::Round window);

  /// Record that `box` holds the stream of `stripe` as if started at `entry`.
  void grant(model::StripeId stripe, model::BoxId box, model::Round entry);

  /// Append to `out` every box that, per the §2.2 rule, possesses the chunk a
  /// request issued at `issue` needs at round `now`; `exclude` (the
  /// requester) is skipped. Returns the number of boxes appended.
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
  struct Entry {
    model::BoxId box;
    model::Round entry;
    bool operator==(const Entry&) const = default;
  };

  std::vector<std::vector<Entry>> per_stripe_;
  /// Per box, the stripe of each of its live entries.
  std::vector<std::vector<model::StripeId>> per_box_;
  /// Grants by expiry round, in grant order; an event whose entry already
  /// died with its box finds nothing to drop.
  RoundCalendar<CacheExpiry> calendar_;
  model::Round window_;
  std::uint64_t entries_ = 0;
};

}  // namespace p2pvod::sim
