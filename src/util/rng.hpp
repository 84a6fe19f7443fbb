// Deterministic, splittable pseudo-random number generation.
//
// Every randomized component of the library takes an explicit 64-bit seed so
// that experiments are reproducible and Monte-Carlo sweeps can split seeds
// deterministically across threads (results never depend on scheduling).
//
// Engines:
//   * SplitMix64 — tiny stateless-ish mixer, used to derive child seeds.
//   * Xoshiro256StarStar — the workhorse engine (Blackman/Vigna 2018),
//     UniformRandomBitGenerator-compatible so it plugs into <random>.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace p2pvod::util {

/// SplitMix64 mixing step: maps any 64-bit value to a well-mixed 64-bit value.
/// This is the canonical finalizer from Vigna's splitmix64; it is bijective.
[[nodiscard]] constexpr std::uint64_t splitmix64_mix(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Sequential SplitMix64 generator; primarily used to seed other engines and
/// to derive independent child seeds for parallel trials.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr result_type operator()() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t state_;
};

/// Derive the `index`-th child seed of `parent`. Children of distinct indices
/// (or distinct parents) are statistically independent for our purposes.
[[nodiscard]] constexpr std::uint64_t child_seed(std::uint64_t parent,
                                                 std::uint64_t index) noexcept {
  return splitmix64_mix(parent ^ splitmix64_mix(index + 0x632be59bd9b4e019ULL));
}

/// xoshiro256** 1.0 — fast, high-quality 256-bit state engine.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Equivalent to 2^128 calls; yields non-overlapping subsequences.
  void jump() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Library-standard RNG facade: one engine plus the distribution helpers the
/// simulator and allocators actually need. Keeping them here (instead of
/// ad-hoc <random> distributions) guarantees identical streams across
/// platforms — libstdc++/libc++ distributions are not bit-compatible.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept : engine_(seed), seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  result_type operator()() noexcept { return engine_(); }
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform integer in [0, bound) using Lemire's nearly-divisionless method.
  /// bound must be > 0. Inline: a shuffle draws one per element, and a call
  /// would keep the engine's state out of registers.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Lemire 2019: multiply-shift with rejection only in the biased strip.
    std::uint64_t x = engine_();
    __uint128_t m =
        static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = engine_();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t next_between(std::int64_t lo,
                                          std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept {
    // 53 high-quality bits -> [0, 1) with full double precision.
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]). Inline:
  /// demand generators draw one per idle box per round.
  [[nodiscard]] bool next_bool(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Standard exponential variate with the given rate (> 0).
  [[nodiscard]] double next_exponential(double rate) noexcept;

  /// Fisher-Yates shuffle of an index vector [0, count).
  [[nodiscard]] std::vector<std::uint32_t> permutation(std::uint32_t count);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    if (values.empty()) return;
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i + 1));
      using std::swap;
      swap(values[i], values[j]);
    }
  }

  /// Derive a child Rng deterministically; independent of this engine's state.
  [[nodiscard]] Rng child(std::uint64_t index) const noexcept {
    return Rng(child_seed(seed_, index));
  }

 private:
  Xoshiro256StarStar engine_;
  std::uint64_t seed_;
};

}  // namespace p2pvod::util
