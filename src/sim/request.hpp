// Request records exchanged between strategies and the simulator.
//
// A *planned* request is what a strategy emits when a user demands a video:
// which box downloads which stripe starting at which round, and which boxes
// gain playback-cache entries as the data flows (normally just the requester;
// under the §4 relay strategy both the relay and the poor box do, with the
// poor box lagging one round behind the forwarder).
//
// Those are the only two caches a stripe's data passes through, so a plan
// holds at most two grants, inline (PlanGrants): planning a demand costs no
// heap allocation. A third grant throws std::length_error inside the
// strategy, before the simulator admits anything.
//
// An *active* request is a planned request currently downloading. At round
// `now` it needs the chunk at position (now - issue); it completes after
// position T-1 is delivered (§2.2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "model/ids.hpp"

namespace p2pvod::sim {

/// Session id: one per (box, demand) playback; groups requests for metrics.
using SessionId = std::uint32_t;
inline constexpr SessionId kInvalidSession = static_cast<SessionId>(-1);

/// A playback-cache entry handed to the availability index: `box` holds the
/// stream of a stripe as if it had started downloading it at round `entry`.
struct CacheGrant {
  model::BoxId box;
  model::Round entry;
};

/// The cache grants of one plan, stored inline: at most kMaxGrants of them.
/// Adding another throws std::length_error and leaves the list unchanged.
class PlanGrants {
 public:
  /// The requester's cache and, under the §4 relay, the poor box's.
  static constexpr std::size_t kMaxGrants = 2;

  PlanGrants& operator=(std::initializer_list<CacheGrant> grants) {
    if (grants.size() > kMaxGrants) throw_full();
    size_ = 0;
    for (const CacheGrant& grant : grants) items_[size_++] = grant;
    return *this;
  }

  void push_back(const CacheGrant& grant) {
    if (size_ == kMaxGrants) throw_full();
    items_[size_++] = grant;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const CacheGrant& operator[](std::size_t i) const noexcept {
    return items_[i];
  }
  [[nodiscard]] const CacheGrant* begin() const noexcept {
    return items_.data();
  }
  [[nodiscard]] const CacheGrant* end() const noexcept {
    return items_.data() + size_;
  }

 private:
  [[noreturn]] static void throw_full() {
    throw std::length_error("PlannedRequest: more than two cache grants");
  }

  std::array<CacheGrant, kMaxGrants> items_{};
  std::size_t size_ = 0;
};

struct PlannedRequest {
  model::BoxId requester = model::kInvalidBox;  ///< box whose download this is
  model::StripeId stripe = model::kInvalidStripe;
  model::Round issue = 0;  ///< round at which the request becomes active
  /// Boxes whose caches fill with this stripe's data (see CacheGrant).
  PlanGrants grants;

  /// Convenience: the common case of a box downloading for itself.
  [[nodiscard]] static PlannedRequest direct(model::BoxId box,
                                             model::StripeId stripe,
                                             model::Round issue) {
    PlannedRequest r;
    r.requester = box;
    r.stripe = stripe;
    r.issue = issue;
    r.grants = {CacheGrant{box, issue}};
    return r;
  }
};

/// CSR-engine slot id of a live request; kNoSparseSlot when the simulator
/// runs the zone-aware engine (no SparseRoundState attached).
inline constexpr std::uint32_t kNoSparseSlot = static_cast<std::uint32_t>(-1);

/// Struct-of-arrays storage for the live request set. The round loop scans
/// these fields linearly (candidate building, zone accounting, churn), so
/// parallel arrays keep each scan on the one field it needs instead of
/// striding over whole request records — the difference is real cache
/// traffic at the million-box scale the CSR engine targets.
struct LiveRequestSoA {
  std::vector<model::StripeId> stripe;
  std::vector<model::Round> issue;
  std::vector<model::BoxId> requester;
  std::vector<SessionId> session;
  std::vector<std::uint32_t> slot;  ///< CSR slot id, or kNoSparseSlot

  [[nodiscard]] std::size_t size() const noexcept { return stripe.size(); }
  [[nodiscard]] bool empty() const noexcept { return stripe.empty(); }

  void push_back(model::StripeId s, model::Round i, model::BoxId r,
                 SessionId id, std::uint32_t sparse_slot) {
    stripe.push_back(s);
    issue.push_back(i);
    requester.push_back(r);
    session.push_back(id);
    slot.push_back(sparse_slot);
  }

  /// Overwrite entry `dst` with entry `src` (compaction scans).
  void move_to(std::size_t dst, std::size_t src) {
    stripe[dst] = stripe[src];
    issue[dst] = issue[src];
    requester[dst] = requester[src];
    session[dst] = session[src];
    slot[dst] = slot[src];
  }

  /// Drop the first `n` entries, keeping the order of the rest.
  void erase_front(std::size_t n) {
    const auto cut = static_cast<std::ptrdiff_t>(n);
    stripe.erase(stripe.begin(), stripe.begin() + cut);
    issue.erase(issue.begin(), issue.begin() + cut);
    requester.erase(requester.begin(), requester.begin() + cut);
    session.erase(session.begin(), session.begin() + cut);
    slot.erase(slot.begin(), slot.begin() + cut);
  }

  void clear() noexcept { resize(0); }

  void resize(std::size_t n) {
    stripe.resize(n);
    issue.resize(n);
    requester.resize(n);
    session.resize(n);
    slot.resize(n);
  }
};

}  // namespace p2pvod::sim
