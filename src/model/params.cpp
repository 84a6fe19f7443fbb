#include "model/params.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace p2pvod::model {

std::uint64_t SystemParams::slot_count() const noexcept {
  return static_cast<std::uint64_t>(slots_per_box()) * n;
}

std::uint32_t SystemParams::slots_per_box() const noexcept {
  return static_cast<std::uint32_t>(std::llround(d * c));
}

std::uint32_t SystemParams::upload_slots() const noexcept {
  const double slots = std::floor(u * c + 1e-9);
  return slots <= 0.0 ? 0u : static_cast<std::uint32_t>(slots);
}

double SystemParams::u_prime() const noexcept {
  return static_cast<double>(upload_slots()) / c;
}

void SystemParams::validate() const {
  auto fail = [](const std::string& message) {
    throw std::invalid_argument("SystemParams: " + message);
  };
  if (n == 0) fail("n must be positive");
  if (m == 0) fail("m must be positive");
  if (c == 0) fail("c must be positive");
  if (k == 0) fail("k must be positive");
  // Each check is written so that NaN fails it, and rejects infinities.
  if (!(u >= 0.0 && std::isfinite(u)))
    fail("u must be finite and non-negative (got " + std::to_string(u) + ")");
  if (!(d > 0.0 && std::isfinite(d)))
    fail("d must be finite and positive (got " + std::to_string(d) + ")");
  if (!(mu >= 1.0 && std::isfinite(mu)))
    fail("mu must be finite and at least 1 (got " + std::to_string(mu) + ")");
  if (video_duration <= 0) fail("video_duration must be positive");
  if (replica_count() > slot_count()) {
    std::ostringstream out;
    out << "replicas (k*m*c = " << replica_count()
        << ") exceed storage slots (d*n*c = " << slot_count() << ")";
    fail(out.str());
  }
  // A box must be able to hold at least the stripes of one video in its
  // catalog share for the model to make sense; d >= replicas per box / c.
  if (slots_per_box() == 0) fail("d*c rounds to zero slots per box");
}

std::string SystemParams::describe() const {
  std::ostringstream out;
  out << "(n=" << n << ", u=" << u << ", d=" << d << ") m=" << m
      << " c=" << c << " k=" << k << " mu=" << mu << " T=" << video_duration
      << " seed=" << seed;
  return out.str();
}

std::uint32_t SystemParams::catalog_from_replication(std::uint32_t n, double d,
                                                     std::uint32_t k) {
  if (k == 0) throw std::invalid_argument("catalog_from_replication: k == 0");
  const double m = d * static_cast<double>(n) / static_cast<double>(k);
  return m < 1.0 ? 1u : static_cast<std::uint32_t>(m);
}

}  // namespace p2pvod::model
