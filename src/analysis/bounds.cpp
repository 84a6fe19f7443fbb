#include "analysis/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace p2pvod::analysis {

namespace {
constexpr double kE = 2.718281828459045;
constexpr double kInf = std::numeric_limits<double>::infinity();

double mu2(double mu) { return mu * mu; }
double mu4(double mu) { return mu * mu * mu * mu; }

// Casting a double to std::uint32_t is undefined unless the value fits, so
// a c or k above kMaxCount (or NaN) makes the bounds invalid instead: c = 0
// is "no valid c" and k = 0 "no valid k".
constexpr double kMaxCount = std::numeric_limits<std::uint32_t>::max();

// c = smallest integer strictly above `threshold`, or 0 when it does not fit.
std::uint32_t smallest_c_above(double threshold) {
  const double c = std::floor(threshold + 1e-12) + 1.0;
  return c >= 0.0 && c <= kMaxCount ? static_cast<std::uint32_t>(c) : 0;
}

// The paper's c = ⌈value⌉, at least `min_c`; 0 when either does not fit.
std::uint32_t recommended(double value, std::uint32_t min_c) {
  const double c = std::ceil(value - 1e-12);
  if (min_c == 0 || !(c <= kMaxCount)) return 0;
  return std::max(min_c, c <= 0.0 ? 0u : static_cast<std::uint32_t>(c));
}

// k = ⌈k_real⌉ (≥ 1), or 0 when k_real is +inf or k does not fit.
std::uint32_t replicas(double k_real) {
  const double k = std::ceil(k_real - 1e-12);
  if (!(k >= 0.0 && k <= kMaxCount)) return 0;
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(k));
}

// Catalog m = ⌊d·n/k⌋ of a valid bound; throws when m does not fit.
std::uint32_t catalog_size(double d, std::uint32_t n, std::uint32_t k) {
  const double m = d * static_cast<double>(n) / static_cast<double>(k);
  if (!(m <= kMaxCount))
    throw std::out_of_range("bounds: catalog d*n/k does not fit in 32 bits");
  return m < 1.0 ? 0u : static_cast<std::uint32_t>(m);
}
}  // namespace

// ---------------------------------------------------------------- Theorem 1

std::uint32_t Theorem1::min_c(double u, double mu) {
  if (u <= 1.0) return 0;
  return smallest_c_above((2.0 * mu2(mu) - 1.0) / (u - 1.0));
}

std::uint32_t Theorem1::recommended_c(double u, double mu) {
  if (u <= 1.0) return 0;
  return recommended(2.0 * (2.0 * mu2(mu) - 1.0) / (u - 1.0), min_c(u, mu));
}

double Theorem1::nu(double u, double mu, std::uint32_t c) {
  if (c == 0) return -kInf;
  return 1.0 / (static_cast<double>(c) + 2.0 * mu2(mu) - 1.0) -
         1.0 / (u * static_cast<double>(c));
}

double Theorem1::u_prime(double u, std::uint32_t c) {
  if (c == 0) return 0.0;
  return std::floor(u * static_cast<double>(c) + 1e-9) /
         static_cast<double>(c);
}

double Theorem1::d_prime(double d, double u) {
  return std::max({d, u, kE});
}

double Theorem1::k_bound(double u, double d, double mu, std::uint32_t c) {
  const double v = nu(u, mu, c);
  const double up = u_prime(u, c);
  if (v <= 0.0 || up <= 1.0) return kInf;
  return 5.0 / v * std::log(d_prime(d, u)) / std::log(up);
}

double Theorem1::k_bound_proof(double u, double d, double mu,
                               std::uint32_t c) {
  const double v = nu(u, mu, c);
  const double up = u_prime(u, c);
  if (v <= 0.0 || up <= 1.0) return kInf;
  const double dp = d_prime(d, u);
  const double log_term =
      std::log(kE * kE * kE * kE * dp * up) / std::log(up);
  return std::max(5.0, log_term) / v;
}

HomogeneousBounds Theorem1::evaluate(HomogeneousInputs in, std::uint32_t c) {
  HomogeneousBounds out;
  out.in = in;
  out.c = (c == 0) ? recommended_c(in.u, in.mu) : c;
  if (in.u <= 1.0 || out.c == 0) return out;  // invalid: below threshold
  out.nu = nu(in.u, in.mu, out.c);
  out.u_prime = u_prime(in.u, out.c);
  out.d_prime = d_prime(in.d, in.u);
  out.k_real = k_bound(in.u, in.d, in.mu, out.c);
  out.k = replicas(out.k_real);
  if (out.k == 0) return out;
  out.valid = out.nu > 0.0 && out.u_prime > 1.0;
  return out;
}

std::uint32_t HomogeneousBounds::catalog(std::uint32_t n) const {
  if (!valid || k == 0) return 0;
  return catalog_size(in.d, n, k);
}

std::string HomogeneousBounds::describe() const {
  std::ostringstream out;
  out << "Thm1(u=" << in.u << ",d=" << in.d << ",mu=" << in.mu << "): c=" << c
      << " nu=" << nu << " u'=" << u_prime << " d'=" << d_prime
      << " k>=" << k_real << " -> k=" << k << (valid ? "" : " [INVALID]");
  return out.str();
}

double Theorem1::catalog_closed_form(std::uint32_t n, double u, double d,
                                     double mu) {
  if (u <= 1.0) return 0.0;
  const double dp = d_prime(d, u);
  const double numerator =
      (u - 1.0) * (u - 1.0) * std::log((u + 1.0) / 2.0);
  const double denominator = 40.0 * mu2(mu) * u * u * u * std::log(dp);
  if (numerator <= 0.0 || denominator <= 0.0) return 0.0;
  return numerator / denominator * d * static_cast<double>(n);
}

double Theorem1::lemma2_expansion(std::uint64_t i, std::uint64_t i1,
                                  std::uint32_t c, double mu) {
  const double num = static_cast<double>(i) -
                     (static_cast<double>(c) + 2.0 * mu2(mu) - 1.0) *
                         static_cast<double>(i1);
  return num / (static_cast<double>(c) + 2.0 * (mu2(mu) - 1.0));
}

double Theorem1::kappa(double u, double mu, std::uint32_t c, std::uint32_t k) {
  return nu(u, mu, c) * static_cast<double>(k) - 2.0;
}

double Theorem1::delta(double u, double d, std::uint32_t c) {
  const double up = u_prime(u, c);
  if (up <= 0.0) return kInf;
  return 4.0 * d_prime(d, u) * kE * kE / up;
}

// ---------------------------------------------------------------- Theorem 2

std::uint32_t Theorem2::min_c(double u_star, double mu) {
  if (u_star <= 1.0) return 0;
  return smallest_c_above(4.0 * mu4(mu) / (u_star - 1.0));
}

std::uint32_t Theorem2::recommended_c(double u_star, double mu) {
  if (u_star <= 1.0) return 0;
  return recommended(10.0 * mu4(mu) / (u_star - 1.0), min_c(u_star, mu));
}

double Theorem2::nu(double mu, std::uint32_t c) {
  if (c == 0) return -kInf;
  return 1.0 / (static_cast<double>(c) + 2.0 * mu4(mu) - 1.0) -
         1.0 / (static_cast<double>(c) + 3.0 * mu4(mu));
}

double Theorem2::u_prime(double mu, std::uint32_t c) {
  if (c == 0) return 0.0;
  return (static_cast<double>(c) + 3.0 * mu4(mu)) / static_cast<double>(c);
}

double Theorem2::d_prime(double d, double u_star) {
  return std::max({d, u_star, kE});
}

double Theorem2::k_bound(double u_star, double d, double mu,
                         std::uint32_t c) {
  const double v = nu(mu, c);
  const double up = u_prime(mu, c);
  if (v <= 0.0 || up <= 1.0) return kInf;
  return 5.0 / v * std::log(d_prime(d, u_star)) / std::log(up);
}

HeterogeneousBounds Theorem2::evaluate(HeterogeneousInputs in,
                                       std::uint32_t c) {
  HeterogeneousBounds out;
  out.in = in;
  out.c = (c == 0) ? recommended_c(in.u_star, in.mu) : c;
  if (in.u_star <= 1.0 || out.c == 0) return out;
  out.nu = nu(in.mu, out.c);
  out.u_prime = u_prime(in.mu, out.c);
  out.d_prime = d_prime(in.d, in.u_star);
  out.k_real = k_bound(in.u_star, in.d, in.mu, out.c);
  out.k = replicas(out.k_real);
  if (out.k == 0) return out;
  out.valid = out.nu > 0.0 && out.u_prime > 1.0;
  return out;
}

std::uint32_t HeterogeneousBounds::catalog(std::uint32_t n) const {
  if (!valid || k == 0) return 0;
  return catalog_size(in.d, n, k);
}

std::string HeterogeneousBounds::describe() const {
  std::ostringstream out;
  out << "Thm2(u*=" << in.u_star << ",d=" << in.d << ",mu=" << in.mu
      << "): c=" << c << " nu=" << nu << " u'=" << u_prime
      << " d'=" << d_prime << " k>=" << k_real << " -> k=" << k
      << (valid ? "" : " [INVALID]");
  return out.str();
}

double Theorem2::catalog_closed_form(std::uint32_t n, double u_star, double d,
                                     double mu) {
  if (u_star <= 1.0) return 0.0;
  const double dp = d_prime(d, u_star);
  const double numerator = (u_star - 1.0) * (u_star - 1.0) *
                           std::log((u_star + 3.0) / 4.0);
  const double denominator = 40.0 * mu4(mu) * std::log(dp);
  if (numerator <= 0.0 || denominator <= 0.0) return 0.0;
  return numerator / denominator * d * static_cast<double>(n);
}

}  // namespace p2pvod::analysis
