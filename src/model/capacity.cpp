#include "model/capacity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace p2pvod::model {

namespace {

// False for NaN too: every comparison with NaN is false.
bool finite_non_negative(double x) {
  return x >= 0.0 && x <= std::numeric_limits<double>::max();
}

[[noreturn]] void reject(const char* what, std::size_t b, double value) {
  std::ostringstream out;
  out << "CapacityProfile: " << what << " of box " << b << " is " << value
      << ", not a finite non-negative number";
  throw std::invalid_argument(out.str());
}

[[noreturn]] void too_many_slots(const char* what, double capacity,
                                 std::uint32_t c) {
  std::ostringstream out;
  out << "CapacityProfile: " << what << " " << capacity << " at c=" << c
      << " is more slots than fit in 32 bits";
  throw std::out_of_range(out.str());
}

// A whole slot count as 32 bits: casting a larger count would be undefined.
std::uint32_t to_slots(double slots, const char* what, double capacity,
                       std::uint32_t c) {
  if (!(slots <= std::numeric_limits<std::uint32_t>::max()))
    too_many_slots(what, capacity, c);
  return slots <= 0.0 ? 0u : static_cast<std::uint32_t>(slots);
}

std::uint32_t storage_to_slots(double storage, std::uint32_t c) {
  return to_slots(std::round(storage * c), "storage", storage, c);
}

}  // namespace

CapacityProfile::CapacityProfile(std::vector<double> upload,
                                 std::vector<double> storage)
    : upload_(std::move(upload)), storage_(std::move(storage)) {
  if (upload_.size() != storage_.size()) {
    throw std::invalid_argument(
        "CapacityProfile: upload/storage size mismatch");
  }
  for (std::size_t b = 0; b < upload_.size(); ++b) {
    if (!finite_non_negative(upload_[b])) reject("upload", b, upload_[b]);
    if (!finite_non_negative(storage_[b])) reject("storage", b, storage_[b]);
  }
}

CapacityProfile CapacityProfile::homogeneous(std::uint32_t n, double u,
                                             double d) {
  return CapacityProfile(std::vector<double>(n, u), std::vector<double>(n, d));
}

CapacityProfile CapacityProfile::two_class(std::uint32_t n,
                                           std::uint32_t poor_count,
                                           double u_poor, double d_poor,
                                           double u_rich, double d_rich) {
  if (poor_count > n)
    throw std::invalid_argument("two_class: poor_count > n");
  std::vector<double> upload(n, u_rich);
  std::vector<double> storage(n, d_rich);
  // Poor boxes take the low indices; allocation and workloads never depend on
  // box order, and deterministic placement keeps tests simple.
  for (std::uint32_t b = 0; b < poor_count; ++b) {
    upload[b] = u_poor;
    storage[b] = d_poor;
  }
  return CapacityProfile(std::move(upload), std::move(storage));
}

CapacityProfile CapacityProfile::proportional(std::uint32_t n, double u_lo,
                                              double u_hi,
                                              double storage_ratio,
                                              util::Rng& rng) {
  if (u_lo < 0.0 || u_hi < u_lo)
    throw std::invalid_argument("proportional: bad upload range");
  std::vector<double> upload(n);
  std::vector<double> storage(n);
  for (std::uint32_t b = 0; b < n; ++b) {
    upload[b] = u_lo + (u_hi - u_lo) * rng.next_double();
    storage[b] = storage_ratio * upload[b];
  }
  return CapacityProfile(std::move(upload), std::move(storage));
}

CapacityProfile CapacityProfile::server_plus_clients(std::uint32_t n,
                                                     double server_upload,
                                                     double server_storage,
                                                     double client_upload,
                                                     double client_storage) {
  if (n == 0) throw std::invalid_argument("server_plus_clients: n == 0");
  std::vector<double> upload(n, client_upload);
  std::vector<double> storage(n, client_storage);
  upload[0] = server_upload;
  storage[0] = server_storage;
  return CapacityProfile(std::move(upload), std::move(storage));
}

double CapacityProfile::average_upload() const noexcept {
  if (upload_.empty()) return 0.0;
  return std::accumulate(upload_.begin(), upload_.end(), 0.0) /
         static_cast<double>(upload_.size());
}

double CapacityProfile::average_storage() const noexcept {
  if (storage_.empty()) return 0.0;
  return std::accumulate(storage_.begin(), storage_.end(), 0.0) /
         static_cast<double>(storage_.size());
}

double CapacityProfile::max_upload() const noexcept {
  if (upload_.empty()) return 0.0;
  return *std::max_element(upload_.begin(), upload_.end());
}

double CapacityProfile::max_storage() const noexcept {
  if (storage_.empty()) return 0.0;
  return *std::max_element(storage_.begin(), storage_.end());
}

double CapacityProfile::min_upload() const noexcept {
  if (upload_.empty()) return 0.0;
  return *std::min_element(upload_.begin(), upload_.end());
}

std::uint32_t CapacityProfile::upload_slots(BoxId b, std::uint32_t c) const {
  const double upload = upload_.at(b);
  return to_slots(std::floor(upload * c + 1e-9), "upload", upload, c);
}

std::uint32_t CapacityProfile::storage_slots(BoxId b, std::uint32_t c) const {
  return storage_to_slots(storage_.at(b), c);
}

std::vector<std::uint32_t> CapacityProfile::storage_slot_counts(
    std::uint32_t c) const {
  std::vector<std::uint32_t> counts(storage_.size());
  for (std::size_t b = 0; b < storage_.size(); ++b)
    counts[b] = storage_to_slots(storage_[b], c);
  return counts;
}

std::uint64_t CapacityProfile::total_storage_slots(std::uint32_t c) const {
  std::uint64_t total = 0;
  for (const double storage : storage_) total += storage_to_slots(storage, c);
  return total;
}

bool CapacityProfile::is_homogeneous(double tol) const noexcept {
  if (upload_.empty()) return true;
  for (std::size_t b = 1; b < upload_.size(); ++b) {
    if (std::abs(upload_[b] - upload_[0]) > tol) return false;
    if (std::abs(storage_[b] - storage_[0]) > tol) return false;
  }
  return true;
}

bool CapacityProfile::is_proportional(double tol) const noexcept {
  if (upload_.empty()) return true;
  double ratio = 0.0;
  bool have_ratio = false;
  for (std::size_t b = 0; b < upload_.size(); ++b) {
    if (storage_[b] == 0.0) return upload_[b] == 0.0;
    const double r = upload_[b] / storage_[b];
    if (!have_ratio) {
      ratio = r;
      have_ratio = true;
    } else if (std::abs(r - ratio) > tol) {
      return false;
    }
  }
  return true;
}

double CapacityProfile::upload_deficit(double u_star) const noexcept {
  double deficit = 0.0;
  for (const double ub : upload_) {
    if (ub < u_star) deficit += u_star - ub;
  }
  return deficit;
}

std::vector<BoxId> CapacityProfile::poor_boxes(double u_star) const {
  std::vector<BoxId> out;
  for (BoxId b = 0; b < size(); ++b) {
    if (upload_[b] < u_star) out.push_back(b);
  }
  return out;
}

std::vector<BoxId> CapacityProfile::rich_boxes(double u_star) const {
  std::vector<BoxId> out;
  for (BoxId b = 0; b < size(); ++b) {
    if (upload_[b] >= u_star) out.push_back(b);
  }
  return out;
}

bool CapacityProfile::satisfies_deficit_condition() const noexcept {
  if (upload_.empty()) return false;
  return average_upload() >
         1.0 + upload_deficit(1.0) / static_cast<double>(size());
}

CapacityProfile CapacityProfile::with_storage_ratio(double ratio) const {
  if (ratio <= 0.0)
    throw std::invalid_argument("with_storage_ratio: ratio must be positive");
  std::vector<double> storage(upload_.size());
  for (std::size_t b = 0; b < upload_.size(); ++b)
    storage[b] = ratio * upload_[b];
  return CapacityProfile(upload_, std::move(storage));
}

std::string CapacityProfile::describe() const {
  std::ostringstream out;
  out << "n=" << size() << " u_avg=" << average_upload()
      << " d_avg=" << average_storage() << " u_min=" << min_upload()
      << " u_max=" << max_upload() << " Delta(1)=" << upload_deficit(1.0);
  return out.str();
}

}  // namespace p2pvod::model
