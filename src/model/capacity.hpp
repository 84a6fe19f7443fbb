// Per-box capacity profiles: upload u_b (in video streams) and storage d_b
// (in videos). Homogeneous systems have constant vectors; heterogeneous
// builders produce the mixes studied in §4 of the paper.
//
// Also hosts the quantities the heterogeneous theory is phrased in:
//   * upload deficit Δ(u*) = Σ_{b : u_b < u*} (u* − u_b)
//   * rich/poor classification w.r.t. a threshold u*
//   * proportional heterogeneity check (u_b/d_b constant)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "util/rng.hpp"

namespace p2pvod::model {

class CapacityProfile {
 public:
  CapacityProfile() = default;
  /// Throws std::invalid_argument unless the sizes match and every value is
  /// finite and non-negative.
  CapacityProfile(std::vector<double> upload, std::vector<double> storage);

  /// All boxes identical: the homogeneous (n, u, d)-video system.
  [[nodiscard]] static CapacityProfile homogeneous(std::uint32_t n, double u,
                                                   double d);

  /// Two-class mix: `poor_count` boxes with (u_poor, d_poor), the rest rich.
  [[nodiscard]] static CapacityProfile two_class(std::uint32_t n,
                                                 std::uint32_t poor_count,
                                                 double u_poor, double d_poor,
                                                 double u_rich, double d_rich);

  /// Proportionally heterogeneous: draw u_b uniform in [u_lo, u_hi] and set
  /// d_b = u_b * (d/u) so that u_b/d_b is constant (§1.1).
  [[nodiscard]] static CapacityProfile proportional(std::uint32_t n,
                                                    double u_lo, double u_hi,
                                                    double storage_ratio,
                                                    util::Rng& rng);

  /// Peer-assisted-server shape: one "server" box with huge capacities and
  /// n-1 client boxes with the given (possibly zero) upload. The model
  /// "encompasses various architectures such as a peer-assisted server" (§1).
  [[nodiscard]] static CapacityProfile server_plus_clients(
      std::uint32_t n, double server_upload, double server_storage,
      double client_upload, double client_storage);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(upload_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return upload_.empty(); }
  [[nodiscard]] double upload(BoxId b) const { return upload_.at(b); }
  [[nodiscard]] double storage(BoxId b) const { return storage_.at(b); }
  [[nodiscard]] std::span<const double> uploads() const noexcept { return upload_; }
  [[nodiscard]] std::span<const double> storages() const noexcept { return storage_; }

  [[nodiscard]] double average_upload() const noexcept;
  [[nodiscard]] double average_storage() const noexcept;
  [[nodiscard]] double max_upload() const noexcept;
  [[nodiscard]] double max_storage() const noexcept;
  [[nodiscard]] double min_upload() const noexcept;

  /// Integral per-box upload in stripe connections per round: ⌊u_b c⌋.
  /// Throws std::out_of_range when the count does not fit in 32 bits.
  [[nodiscard]] std::uint32_t upload_slots(BoxId b, std::uint32_t c) const;
  /// Integral per-box storage in stripe slots: round(d_b c). Throws
  /// std::out_of_range when the count does not fit in 32 bits.
  [[nodiscard]] std::uint32_t storage_slots(BoxId b, std::uint32_t c) const;
  /// storage_slots(b, c) of every box, by box, in one pass.
  [[nodiscard]] std::vector<std::uint32_t> storage_slot_counts(
      std::uint32_t c) const;
  /// Total storage slots Σ_b round(d_b c).
  [[nodiscard]] std::uint64_t total_storage_slots(std::uint32_t c) const;

  [[nodiscard]] bool is_homogeneous(double tol = 1e-12) const noexcept;
  /// u_b/d_b constant across boxes (§1.1 "proportionally heterogeneous").
  [[nodiscard]] bool is_proportional(double tol = 1e-9) const noexcept;

  /// Upload deficit Δ(u*) = Σ_{b: u_b < u*} (u* − u_b)  (§4).
  [[nodiscard]] double upload_deficit(double u_star) const noexcept;
  /// Boxes with u_b < u* ("poor") and u_b ≥ u* ("rich").
  [[nodiscard]] std::vector<BoxId> poor_boxes(double u_star) const;
  [[nodiscard]] std::vector<BoxId> rich_boxes(double u_star) const;

  /// The intuitive scalability requirement of §4: u > 1 + Δ(1)/n.
  [[nodiscard]] bool satisfies_deficit_condition() const noexcept;

  /// Scale every box's storage so that d_b = ratio * u_b (used by the
  /// u*-storage-balance reduction: "artificially reducing the storage").
  [[nodiscard]] CapacityProfile with_storage_ratio(double ratio) const;

  [[nodiscard]] std::string describe() const;

 private:
  std::vector<double> upload_;
  std::vector<double> storage_;
};

}  // namespace p2pvod::model
