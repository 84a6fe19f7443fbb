#include "core/config.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace p2pvod::core {

void SystemConfig::validate() const {
  auto fail = [](const std::string& message) {
    throw std::invalid_argument("SystemConfig: " + message);
  };
  // Each check is written so that NaN fails it, and rejects infinities.
  if (n == 0) fail("n must be positive");
  if (!(u >= 0.0 && std::isfinite(u)))
    fail("u must be finite and non-negative (got " + std::to_string(u) + ")");
  if (!(d > 0.0 && std::isfinite(d)))
    fail("d must be finite and positive (got " + std::to_string(d) + ")");
  if (!(mu >= 1.0 && std::isfinite(mu)))
    fail("mu must be finite and at least 1 (got " + std::to_string(mu) + ")");
  if (duration <= 0) fail("duration must be positive");
  if (zones > n) fail("zones must not exceed n");
}

std::string SystemConfig::describe() const {
  std::ostringstream out;
  out << "config n=" << n << " u=" << u << " d=" << d << " mu=" << mu
      << " T=" << duration;
  if (c != 0) out << " c=" << c;
  if (k != 0) out << " k=" << k;
  if (m != 0) out << " m=" << m;
  if (zones != 0) out << " zones=" << zones;
  out << " scheme=" << alloc::scheme_name(scheme) << " seed=" << seed;
  return out.str();
}

}  // namespace p2pvod::core
