#include "hetero/compensation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace p2pvod::hetero {

std::uint32_t CompensationPlan::poor_count() const {
  std::uint32_t count = 0;
  for (const model::BoxId r : relay) {
    if (r != model::kInvalidBox) ++count;
  }
  return count;
}

std::vector<std::uint32_t> CompensationPlan::capacity_slots() const {
  std::vector<std::uint32_t> slots(usable_upload.size());
  for (std::size_t b = 0; b < usable_upload.size(); ++b) {
    const double s = std::floor(usable_upload[b] * c + 1e-9);
    slots[b] = s <= 0.0 ? 0u : static_cast<std::uint32_t>(s);
  }
  return slots;
}

std::string CompensationPlan::describe() const {
  std::ostringstream out;
  out << "compensation u*=" << u_star << " c=" << c << " mu=" << mu
      << " poor=" << poor_count() << "/" << relay.size();
  return out.str();
}

void CompensationPlan::check(const model::CapacityProfile& profile) const {
  if (relay.size() != profile.size())
    throw std::logic_error("CompensationPlan: size mismatch");
  std::vector<double> hosted(profile.size(), 0.0);
  for (model::BoxId b = 0; b < profile.size(); ++b) {
    const model::BoxId r = relay[b];
    if (r == model::kInvalidBox) {
      if (profile.upload(b) < u_star)
        throw std::logic_error("CompensationPlan: poor box without relay");
      continue;
    }
    if (profile.upload(b) >= u_star)
      throw std::logic_error("CompensationPlan: rich box has a relay");
    if (profile.upload(r) < u_star)
      throw std::logic_error("CompensationPlan: relay is not rich");
    hosted[r] += u_star + 1.0 - 2.0 * profile.upload(b);
  }
  for (model::BoxId a = 0; a < profile.size(); ++a) {
    if (std::abs(hosted[a] - reserved[a]) > 1e-9)
      throw std::logic_error("CompensationPlan: reserved bookkeeping drifted");
    if (hosted[a] > 0.0 && profile.upload(a) + 1e-9 < u_star + hosted[a])
      throw std::logic_error(
          "CompensationPlan: reservation inequality violated");
  }
}

bool Compensator::necessary_condition(const model::CapacityProfile& profile,
                                      double u_star) {
  return profile.average_upload() + 1e-12 >=
         u_star + profile.upload_deficit(1.0) /
                      static_cast<double>(profile.size());
}

std::uint32_t Compensator::direct_stripe_count(double u_b, std::uint32_t c,
                                               double mu) {
  const double mu4 = mu * mu * mu * mu;
  const double raw = std::floor(u_b * c - 4.0 * mu4 + 1e-9);
  if (raw <= 0.0) return 0;
  return std::min<std::uint32_t>(static_cast<std::uint32_t>(raw), c - 1);
}

std::optional<CompensationPlan> Compensator::plan(
    const model::CapacityProfile& profile, double u_star, std::uint32_t c,
    double mu) {
  if (!(u_star > 1.0))
    throw std::invalid_argument("Compensator: u* must exceed 1");
  if (c == 0) throw std::invalid_argument("Compensator: c == 0");
  if (!(mu >= 1.0))
    throw std::invalid_argument("Compensator: mu is NaN or < 1");

  const std::uint32_t n = profile.size();
  CompensationPlan out;
  out.u_star = u_star;
  out.c = c;
  out.mu = mu;
  out.relay.assign(n, model::kInvalidBox);
  out.reserved.assign(n, 0.0);
  out.usable_upload.resize(n);
  out.direct_stripes.assign(n, c);

  // First-fit decreasing: largest reservations first, onto the box with the
  // most spare headroom (u_a − u* − hosted). Not optimal bin packing — any
  // feasible pairing satisfies Theorem 2, and FFD finds one whenever slack is
  // not razor-thin.
  std::vector<model::BoxId> poor = profile.poor_boxes(u_star);
  std::vector<model::BoxId> rich = profile.rich_boxes(u_star);
  if (poor.empty()) {
    for (model::BoxId b = 0; b < n; ++b)
      out.usable_upload[b] = profile.upload(b);
    return out;
  }
  if (rich.empty()) return std::nullopt;

  std::sort(poor.begin(), poor.end(),
            [&](model::BoxId x, model::BoxId y) {
              return profile.upload(x) < profile.upload(y);  // biggest need first
            });
  std::vector<double> headroom(n, 0.0);
  for (const model::BoxId a : rich) headroom[a] = profile.upload(a) - u_star;

  std::vector<double> forwarding(n, 0.0);  // static forwarding cost per relay
  for (const model::BoxId b : poor) {
    const double need = u_star + 1.0 - 2.0 * profile.upload(b);
    model::BoxId best = model::kInvalidBox;
    double best_headroom = -1.0;
    for (const model::BoxId a : rich) {
      if (headroom[a] >= need - 1e-12 && headroom[a] > best_headroom) {
        best_headroom = headroom[a];
        best = a;
      }
    }
    if (best == model::kInvalidBox) return std::nullopt;
    headroom[best] -= need;
    out.relay[b] = best;
    out.reserved[best] += need;
    const std::uint32_t cb = direct_stripe_count(profile.upload(b), c, mu);
    out.direct_stripes[b] = cb;
    forwarding[best] += static_cast<double>(c - cb) / static_cast<double>(c);
  }

  for (model::BoxId b = 0; b < n; ++b) {
    out.usable_upload[b] =
        std::max(0.0, profile.upload(b) - forwarding[b]);
  }
  return out;
}

}  // namespace p2pvod::hetero
