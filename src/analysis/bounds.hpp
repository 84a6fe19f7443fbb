// Closed-form bounds of Theorem 1 (homogeneous) and Theorem 2 (heterogeneous).
//
// All formulas are transcribed from the paper with their section markers; the
// unit tests pin each one against hand-computed values. Quantities:
//   ν  = 1/(c + 2µ² − 1) − 1/(u·c)                  (Lemma 4)
//   u′ = ⌊u·c⌋/c                                    (§3, effective upload)
//   d′ = max{d, u, e}                               (Theorem 1)
//   k  ≥ 5 ν⁻¹ log d′ / log u′                      (Theorem 1)
//   m  = d n / k                                    (catalog identity, §2.1)
// plus the Lemma 2 expansion bound and the κ/δ tail exponents from the proof.
#pragma once

#include <cstdint>
#include <string>

namespace p2pvod::analysis {

/// Inputs of the homogeneous Theorem 1.
struct HomogeneousInputs {
  double u = 1.5;   ///< normalized upload capacity (> 1 for the theorem)
  double d = 4.0;   ///< storage capacity in videos
  double mu = 1.2;  ///< maximal swarm growth
};

struct HomogeneousBounds {
  HomogeneousInputs in;
  std::uint32_t c = 0;    ///< chosen stripe count
  double nu = 0.0;        ///< expansion margin ν
  double u_prime = 0.0;   ///< effective upload u′ = ⌊uc⌋/c
  double d_prime = 0.0;   ///< d′ = max{d, u, e}
  double k_real = 0.0;    ///< 5 ν⁻¹ log d′ / log u′ before rounding
  std::uint32_t k = 0;    ///< ⌈k_real⌉ (≥ 1); 0 when it does not fit
  bool valid = false;     ///< all theorem preconditions hold

  /// Catalog m = d·n/k for a given n (0 when invalid). Throws
  /// std::out_of_range when m does not fit in 32 bits.
  [[nodiscard]] std::uint32_t catalog(std::uint32_t n) const;
  [[nodiscard]] std::string describe() const;
};

class Theorem1 {
 public:
  /// Smallest integer c satisfying c > (2µ²−1)/(u−1); 0 when u <= 1 or
  /// when c does not fit in 32 bits (u barely above 1).
  [[nodiscard]] static std::uint32_t min_c(double u, double mu);
  /// The paper's choice c = ⌈2(2µ²−1)/(u−1)⌉ used in the closed form; 0
  /// like min_c.
  [[nodiscard]] static std::uint32_t recommended_c(double u, double mu);

  [[nodiscard]] static double nu(double u, double mu, std::uint32_t c);
  [[nodiscard]] static double u_prime(double u, std::uint32_t c);
  [[nodiscard]] static double d_prime(double d, double u);

  /// k ≥ 5 ν⁻¹ log d′ / log u′ (Theorem 1); +inf when preconditions fail.
  [[nodiscard]] static double k_bound(double u, double d, double mu,
                                      std::uint32_t c);

  /// The stronger sufficient bound from the proof:
  /// k ≥ ν⁻¹ max{5, log_{u′}(e⁴ d′ u′)}.
  [[nodiscard]] static double k_bound_proof(double u, double d, double mu,
                                            std::uint32_t c);

  /// Assemble everything for a given c (or the recommended c when c == 0).
  /// The result is invalid when no c or k fits in 32 bits.
  [[nodiscard]] static HomogeneousBounds evaluate(HomogeneousInputs in,
                                                  std::uint32_t c = 0);

  /// The closed-form catalog lower bound
  /// m = (u−1)² log((u+1)/2) / (40 µ² u³) · d n / log d′ — the Ω(·) of
  /// Theorem 1 with the explicit constant from ν⁻¹ <= 8µ²u³/(u−1)² and k=5ν⁻¹
  /// log_{u′} d′ (log base (u+1)/2 since u′ >= (u+1)/2 for the chosen c).
  [[nodiscard]] static double catalog_closed_form(std::uint32_t n, double u,
                                                  double d, double mu);

  /// Lemma 2: |B(X)| ≥ (i − (c + 2µ² − 1)·i₁) / (c + 2(µ² − 1)).
  [[nodiscard]] static double lemma2_expansion(std::uint64_t i,
                                               std::uint64_t i1,
                                               std::uint32_t c, double mu);

  /// Tail exponents of the proof: κ = νk − 2 and δ = 4 d′ e² / u′.
  [[nodiscard]] static double kappa(double u, double mu, std::uint32_t c,
                                    std::uint32_t k);
  [[nodiscard]] static double delta(double u, double d, std::uint32_t c);
};

/// Inputs of the heterogeneous Theorem 2 (u*-balanced system).
struct HeterogeneousInputs {
  double u_star = 1.5;  ///< rich/poor threshold (1 < u* <= 2 for closed form)
  double d = 4.0;       ///< average storage
  double mu = 1.1;      ///< growth bound (on the original time scale)
};

struct HeterogeneousBounds {
  HeterogeneousInputs in;
  std::uint32_t c = 0;
  double nu = 0.0;
  double u_prime = 0.0;  ///< (c + 3µ⁴)/c in Theorem 2
  double d_prime = 0.0;  ///< max{d, u*, e}
  double k_real = 0.0;
  std::uint32_t k = 0;
  bool valid = false;

  [[nodiscard]] std::uint32_t catalog(std::uint32_t n) const;
  [[nodiscard]] std::string describe() const;
};

class Theorem2 {
 public:
  /// Smallest integer c with c > 4µ⁴/(u*−1); 0 as in Theorem1::min_c.
  [[nodiscard]] static std::uint32_t min_c(double u_star, double mu);
  /// The paper's practical choice c = ⌈10µ⁴/(u*−1)⌉; 0 as in Theorem1.
  [[nodiscard]] static std::uint32_t recommended_c(double u_star, double mu);

  [[nodiscard]] static double nu(double mu, std::uint32_t c);
  [[nodiscard]] static double u_prime(double mu, std::uint32_t c);
  [[nodiscard]] static double d_prime(double d, double u_star);
  [[nodiscard]] static double k_bound(double u_star, double d, double mu,
                                      std::uint32_t c);
  [[nodiscard]] static HeterogeneousBounds evaluate(HeterogeneousInputs in,
                                                    std::uint32_t c = 0);

  /// Closed form Ω((u*−1)² log((u*+3)/4) / µ⁴ · d n / log d′) with the
  /// explicit 1/40 constant mirroring Theorem 1's derivation.
  [[nodiscard]] static double catalog_closed_form(std::uint32_t n,
                                                  double u_star, double d,
                                                  double mu);
};

}  // namespace p2pvod::analysis
