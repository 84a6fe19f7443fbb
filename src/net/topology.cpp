#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "flow/min_cost.hpp"
#include "util/rng.hpp"

namespace p2pvod::net {

namespace {

// The matcher takes zone costs as they are, so a cost it would reject must
// fail here, when the topology is configured.
void check_cost(Cost cost) {
  if (cost < 0)
    throw std::invalid_argument("Topology: costs must be non-negative");
  if (cost > flow::kMaxEdgeCost)
    throw std::invalid_argument("Topology: cost " + std::to_string(cost) +
                                " is above flow::kMaxEdgeCost");
}

}  // namespace

Topology::Topology(std::vector<ZoneId> zone_of, std::uint32_t zone_count)
    : zone_of_(std::move(zone_of)),
      zone_count_(zone_count),
      cost_(static_cast<std::size_t>(zone_count) * zone_count, 0),
      link_cap_(static_cast<std::size_t>(zone_count) * zone_count,
                kUnlimitedLink) {
  if (zone_count_ == 0)
    throw std::invalid_argument("Topology: zone_count must be positive");
  for (const ZoneId z : zone_of_) {
    if (z >= zone_count_)
      throw std::invalid_argument("Topology: box zone out of range");
  }
}

Topology Topology::uniform(std::uint32_t boxes, std::uint32_t zones) {
  if (zones == 0)
    throw std::invalid_argument("Topology::uniform: zones must be positive");
  std::vector<ZoneId> zone_of(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b) zone_of[b] = b % zones;
  return Topology(std::move(zone_of), zones);
}

Topology Topology::zipf_sized(std::uint32_t boxes, std::uint32_t zones,
                              double skew, std::uint64_t seed) {
  if (zones == 0)
    throw std::invalid_argument("Topology::zipf_sized: zones must be positive");
  if (!(skew >= 0.0))
    throw std::invalid_argument(
        "Topology::zipf_sized: skew must be non-negative");

  // Zone z's share ~ 1/(z+1)^skew; largest-remainder rounding so the sizes
  // sum to `boxes` exactly. When boxes >= zones every zone keeps at least one
  // box (a zero-sized "ISP" is a degenerate topology nobody intends here).
  std::vector<double> weight(zones);
  double total = 0.0;
  for (std::uint32_t z = 0; z < zones; ++z) {
    weight[z] = 1.0 / std::pow(static_cast<double>(z + 1), skew);
    total += weight[z];
  }
  const std::uint32_t reserved = boxes >= zones ? zones : 0;
  const std::uint32_t to_share = boxes - reserved;
  std::vector<std::uint32_t> size(zones, reserved > 0 ? 1u : 0u);
  std::vector<std::pair<double, ZoneId>> remainder(zones);
  std::uint32_t assigned = 0;
  for (std::uint32_t z = 0; z < zones; ++z) {
    const double exact = to_share * weight[z] / total;
    const auto whole = static_cast<std::uint32_t>(exact);
    size[z] += whole;
    assigned += whole;
    remainder[z] = {exact - whole, z};
  }
  // Ties broken toward the lower zone id: stable order in, stable sort.
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::uint32_t i = 0; assigned < to_share; ++i, ++assigned) {
    ++size[remainder[i % zones].second];
  }

  // A seeded permutation decides which boxes land where, so two topologies
  // with the same parameters and seed are identical.
  util::Rng rng(seed);
  const std::vector<std::uint32_t> order = rng.permutation(boxes);
  std::vector<ZoneId> zone_of(boxes);
  std::uint32_t cursor = 0;
  for (ZoneId z = 0; z < zones; ++z) {
    for (std::uint32_t i = 0; i < size[z]; ++i) zone_of[order[cursor++]] = z;
  }
  return Topology(std::move(zone_of), zones);
}

Topology Topology::random(std::uint32_t boxes, std::uint32_t zones,
                          std::uint64_t seed) {
  if (zones == 0)
    throw std::invalid_argument("Topology::random: zones must be positive");
  util::Rng rng(seed);
  std::vector<ZoneId> zone_of(boxes);
  for (std::uint32_t b = 0; b < boxes; ++b)
    zone_of[b] = static_cast<ZoneId>(rng.next_below(zones));
  return Topology(std::move(zone_of), zones);
}

std::size_t Topology::pair_index(ZoneId from, ZoneId to) const {
  if (from >= zone_count_ || to >= zone_count_)
    throw std::out_of_range("Topology: zone id out of range");
  return static_cast<std::size_t>(from) * zone_count_ + to;
}

Topology& Topology::set_uniform_cost(Cost intra, Cost inter) {
  check_cost(intra);
  check_cost(inter);
  for (ZoneId a = 0; a < zone_count_; ++a) {
    for (ZoneId b = 0; b < zone_count_; ++b) {
      cost_[pair_index(a, b)] = (a == b) ? intra : inter;
    }
  }
  return *this;
}

Topology& Topology::set_cost(ZoneId from, ZoneId to, Cost cost) {
  check_cost(cost);
  cost_[pair_index(from, to)] = cost;
  return *this;
}

Cost Topology::cost(ZoneId from, ZoneId to) const {
  return cost_[pair_index(from, to)];
}

bool Topology::all_costs_zero() const noexcept {
  return std::all_of(cost_.begin(), cost_.end(),
                     [](Cost c) { return c == 0; });
}

Topology& Topology::set_uniform_link_cap(std::uint32_t cap) {
  for (ZoneId a = 0; a < zone_count_; ++a) {
    for (ZoneId b = 0; b < zone_count_; ++b) {
      if (a != b) link_cap_[pair_index(a, b)] = cap;
    }
  }
  return *this;
}

Topology& Topology::set_link_cap(ZoneId from, ZoneId to, std::uint32_t cap) {
  link_cap_[pair_index(from, to)] = cap;
  return *this;
}

std::uint32_t Topology::link_cap(ZoneId from, ZoneId to) const {
  return link_cap_[pair_index(from, to)];
}

bool Topology::has_link_caps() const noexcept {
  return std::any_of(link_cap_.begin(), link_cap_.end(),
                     [](std::uint32_t cap) { return cap != kUnlimitedLink; });
}

std::uint32_t Topology::zone_size(ZoneId z) const {
  if (z >= zone_count_)
    throw std::out_of_range("Topology::zone_size: zone id out of range");
  std::uint32_t count = 0;
  for (const ZoneId zone : zone_of_) {
    if (zone == z) ++count;
  }
  return count;
}

std::vector<model::BoxId> Topology::members(ZoneId z) const {
  if (z >= zone_count_)
    throw std::out_of_range("Topology::members: zone id out of range");
  std::vector<model::BoxId> out;
  for (model::BoxId b = 0; b < zone_of_.size(); ++b) {
    if (zone_of_[b] == z) out.push_back(b);
  }
  return out;
}

std::string Topology::describe() const {
  std::ostringstream out;
  out << "topology zones=" << zone_count_ << " boxes=" << box_count()
      << " sizes=[";
  for (ZoneId z = 0; z < zone_count_; ++z) {
    if (z > 0) out << ',';
    out << zone_size(z);
  }
  out << ']';
  if (!all_costs_zero()) out << " costed";
  if (has_link_caps()) out << " capped";
  return out.str();
}

}  // namespace p2pvod::net
