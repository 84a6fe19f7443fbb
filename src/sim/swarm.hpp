// Swarm registry: per-video population accounting and preload tickets.
//
// The paper bounds the growth of each swarm — the population of boxes
// viewing the same video — by f(t+1) <= ceil(max(f(t),1) * µ) and balances
// preload stripes by numbering boxes as they enter: "the pth box then
// preloads stripe number p modulo c" (§3). SwarmRegistry owns both.
#pragma once

#include <cstdint>
#include <vector>

#include "model/ids.hpp"

namespace p2pvod::sim {

class SwarmRegistry {
 public:
  SwarmRegistry() = default;
  explicit SwarmRegistry(std::uint32_t video_count) { reset(video_count); }

  /// Empty every swarm of a `video_count`-video catalog: sizes, preload
  /// ticket counters and the peak start over, storage is kept.
  void reset(std::uint32_t video_count);

  /// A box enters the swarm of `v` (demand admitted at round `now`); returns
  /// the box's entry number p (0-based) for preload-stripe selection.
  std::uint64_t enter(model::VideoId v, model::Round now);

  /// A viewing session of `v` ended (box left the swarm).
  void leave(model::VideoId v);

  /// Called once per round *before* demands are admitted; freezes f(t-1)
  /// used by the growth rule.
  void begin_round(model::Round now);

  /// Current population f(t) of the swarm of v.
  [[nodiscard]] std::uint32_t size(model::VideoId v) const;
  /// Population at the start of the round, before this round's joins.
  [[nodiscard]] std::uint32_t size_at_round_start(model::VideoId v) const;
  /// Lifetime entry counter (the preload ticket counter).
  [[nodiscard]] std::uint64_t total_entries(model::VideoId v) const;

  /// Joins still admissible this round under growth bound µ:
  /// ceil(max(f_start,1) * µ) - f_current, clamped at 0.
  [[nodiscard]] std::uint32_t admissible_joins(model::VideoId v,
                                               double mu) const;

  /// Largest swarm size ever observed (report metric).
  [[nodiscard]] std::uint32_t peak_size() const noexcept { return peak_; }

  [[nodiscard]] std::uint32_t video_count() const noexcept {
    return static_cast<std::uint32_t>(current_.size());
  }

 private:
  std::vector<std::uint32_t> current_;      // f(t) live
  std::vector<std::uint32_t> round_start_;  // f at begin_round
  std::vector<std::uint64_t> entries_;      // lifetime joins
  std::uint32_t peak_ = 0;
};

}  // namespace p2pvod::sim
