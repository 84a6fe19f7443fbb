#include "util/rng.hpp"

#include <cmath>

namespace p2pvod::util {

void Xoshiro256StarStar::jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= state_[i];
      }
      (*this)();
    }
  }
  state_ = acc;
}

std::int64_t Rng::next_between(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span =
      static_cast<std::uint64_t>(hi - lo) + 1ULL;  // hi == lo gives span 1
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_exponential(double rate) noexcept {
  // Inverse CDF; guard against log(0).
  double x = next_double();
  while (x <= 0.0) x = next_double();
  return -std::log(x) / rate;
}

std::vector<std::uint32_t> Rng::permutation(std::uint32_t count) {
  std::vector<std::uint32_t> out(count);
  for (std::uint32_t i = 0; i < count; ++i) out[i] = i;
  shuffle(out);
  return out;
}

}  // namespace p2pvod::util
