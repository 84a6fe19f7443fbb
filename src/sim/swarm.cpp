#include "sim/swarm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2pvod::sim {

void SwarmRegistry::reset(std::uint32_t video_count) {
  current_.assign(video_count, 0);
  round_start_.assign(video_count, 0);
  entries_.assign(video_count, 0);
  peak_ = 0;
}

std::uint64_t SwarmRegistry::enter(model::VideoId v, model::Round /*now*/) {
  if (v >= current_.size()) throw std::out_of_range("SwarmRegistry::enter");
  const std::uint64_t ticket = entries_[v]++;
  ++current_[v];
  peak_ = std::max(peak_, current_[v]);
  return ticket;
}

void SwarmRegistry::leave(model::VideoId v) {
  if (v >= current_.size()) throw std::out_of_range("SwarmRegistry::leave");
  if (current_[v] == 0)
    throw std::logic_error("SwarmRegistry::leave: empty swarm");
  --current_[v];
}

void SwarmRegistry::begin_round(model::Round /*now*/) {
  round_start_ = current_;
}

std::uint32_t SwarmRegistry::size(model::VideoId v) const {
  if (v >= current_.size()) throw std::out_of_range("SwarmRegistry::size");
  return current_[v];
}

std::uint32_t SwarmRegistry::size_at_round_start(model::VideoId v) const {
  if (v >= round_start_.size())
    throw std::out_of_range("SwarmRegistry::size_at_round_start");
  return round_start_[v];
}

std::uint64_t SwarmRegistry::total_entries(model::VideoId v) const {
  if (v >= entries_.size())
    throw std::out_of_range("SwarmRegistry::total_entries");
  return entries_[v];
}

std::uint32_t SwarmRegistry::admissible_joins(model::VideoId v,
                                              double mu) const {
  const double f0 = std::max<double>(1.0, size_at_round_start(v));
  const auto limit = static_cast<std::uint64_t>(std::ceil(f0 * mu));
  const std::uint32_t now_size = size(v);
  if (now_size >= limit) return 0;
  return static_cast<std::uint32_t>(limit - now_size);
}

}  // namespace p2pvod::sim
