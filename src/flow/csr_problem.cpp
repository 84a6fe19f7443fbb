#include "flow/csr_problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pvod::flow {

namespace {

/// Extra slots granted on relocation so a growing row amortizes its moves.
std::uint32_t slack_for(std::uint32_t size) {
  return std::max<std::uint32_t>(2, size / 2);
}

/// Pool-management accounting: relocations and compactions are driven purely
/// by the edit sequence (sizes and thresholds), so both are
/// thread-count-invariant.
obs::Counter& relocation_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/csr_row_relocations");
  return counter;
}

obs::Counter& compaction_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("flow/csr_pool_compactions");
  return counter;
}

}  // namespace

void CsrProblem::clear() noexcept {
  rows_.clear();
  boxes_.clear();
  counts_.clear();
  edges_ = 0;
  abandoned_ = 0;
}

void CsrProblem::ensure_row(std::uint32_t row) {
  if (row >= rows_.size()) rows_.resize(static_cast<std::size_t>(row) + 1);
}

void CsrProblem::clear_row(std::uint32_t row) {
  RowRef& ref = rows_.at(row);
  edges_ -= ref.size;
  ref.size = 0;
}

void CsrProblem::assign_row(std::uint32_t row,
                            std::span<const std::uint32_t> boxes,
                            std::span<const std::uint32_t> counts) {
  if (boxes.size() != counts.size())
    throw std::invalid_argument("CsrProblem::assign_row: length mismatch");
  RowRef& ref = rows_.at(row);
  const auto size = static_cast<std::uint32_t>(boxes.size());
  if (size > ref.capacity) relocate(row, size + slack_for(size));
  RowRef& placed = rows_[row];  // relocate may have moved the span
  std::copy(boxes.begin(), boxes.end(), boxes_.begin() + placed.offset);
  std::copy(counts.begin(), counts.end(), counts_.begin() + placed.offset);
  edges_ += size;
  edges_ -= placed.size;
  placed.size = size;
  maybe_compact();
}

bool CsrProblem::add_source(std::uint32_t row, std::uint32_t box) {
  RowRef& ref = rows_.at(row);
  const std::uint32_t pos = lower_bound_in(ref, box);
  if (pos < ref.size && boxes_[ref.offset + pos] == box) {
    ++counts_[ref.offset + pos];
    return false;
  }
  if (ref.size == ref.capacity) relocate(row, ref.size + slack_for(ref.size));
  RowRef& placed = rows_[row];
  const std::size_t at = static_cast<std::size_t>(placed.offset) + pos;
  std::copy_backward(boxes_.begin() + at,
                     boxes_.begin() + placed.offset + placed.size,
                     boxes_.begin() + placed.offset + placed.size + 1);
  std::copy_backward(counts_.begin() + at,
                     counts_.begin() + placed.offset + placed.size,
                     counts_.begin() + placed.offset + placed.size + 1);
  boxes_[at] = box;
  counts_[at] = 1;
  ++placed.size;
  ++edges_;
  maybe_compact();
  return true;
}

std::uint32_t CsrProblem::remove_sources(
    std::uint32_t row, std::span<const std::uint32_t> boxes,
    std::vector<std::uint32_t>* left) {
  RowRef& ref = rows_.at(row);
  if (boxes.empty()) return 0;
  const auto row_boxes = boxes_.begin() + ref.offset;
  const auto row_counts = counts_.begin() + ref.offset;
  // Entries below the first box to drop stay put; from there on, each entry
  // takes its drops and the survivors slide down over the boxes that left.
  std::uint32_t read = lower_bound_in(ref, boxes.front());
  std::uint32_t write = read;
  std::size_t next = 0;
  for (; read < ref.size && next < boxes.size(); ++read) {
    const std::uint32_t box = row_boxes[read];
    std::uint32_t count = row_counts[read];
    while (next < boxes.size() && boxes[next] < box) ++next;  // misses
    for (; next < boxes.size() && boxes[next] == box; ++next) {
      if (count > 0) --count;
    }
    if (count == 0) {
      if (left != nullptr) left->push_back(box);
      continue;
    }
    row_boxes[write] = box;
    row_counts[write] = count;
    ++write;
  }
  const std::uint32_t gone = read - write;
  if (gone == 0) return 0;
  std::copy(row_boxes + read, row_boxes + ref.size, row_boxes + write);
  std::copy(row_counts + read, row_counts + ref.size, row_counts + write);
  ref.size -= gone;
  edges_ -= gone;
  return gone;
}

bool CsrProblem::remove_box(std::uint32_t row, std::uint32_t box) {
  RowRef& ref = rows_.at(row);
  const std::uint32_t pos = lower_bound_in(ref, box);
  if (pos >= ref.size || boxes_[ref.offset + pos] != box) return false;
  const std::size_t at = static_cast<std::size_t>(ref.offset) + pos;
  std::copy(boxes_.begin() + at + 1, boxes_.begin() + ref.offset + ref.size,
            boxes_.begin() + at);
  std::copy(counts_.begin() + at + 1, counts_.begin() + ref.offset + ref.size,
            counts_.begin() + at);
  --ref.size;
  --edges_;
  return true;
}

bool CsrProblem::contains(std::uint32_t row, std::uint32_t box) const {
  const RowRef& ref = rows_.at(row);
  const std::uint32_t pos = lower_bound_in(ref, box);
  return pos < ref.size && boxes_[ref.offset + pos] == box;
}

// Does NOT compact: callers finish their edit (the row's size field may be
// mid-update) and trigger maybe_compact() themselves once consistent.
void CsrProblem::relocate(std::uint32_t row, std::uint32_t capacity) {
  relocation_counter().add();
  RowRef& ref = rows_[row];
  const auto offset = static_cast<std::uint32_t>(boxes_.size());
  boxes_.resize(boxes_.size() + capacity);
  counts_.resize(counts_.size() + capacity);
  std::copy_n(boxes_.begin() + ref.offset, ref.size, boxes_.begin() + offset);
  std::copy_n(counts_.begin() + ref.offset, ref.size,
              counts_.begin() + offset);
  abandoned_ += ref.capacity;
  ref.offset = offset;
  ref.capacity = capacity;
}

void CsrProblem::maybe_compact() {
  if (boxes_.size() < 4096 || abandoned_ * 2 < boxes_.size()) return;
  OBS_SPAN("flow/csr_compact");
  compaction_counter().add();
  std::vector<std::uint32_t> boxes;
  std::vector<std::uint32_t> counts;
  boxes.reserve(boxes_.size() - abandoned_);
  counts.reserve(counts_.size() - abandoned_);
  for (RowRef& ref : rows_) {
    const auto offset = static_cast<std::uint32_t>(boxes.size());
    // Shrink back to a small pad; relocation slack regrows where needed.
    const std::uint32_t capacity = ref.size + std::min(slack_for(ref.size), 4u);
    boxes.resize(boxes.size() + capacity);
    counts.resize(counts.size() + capacity);
    std::copy_n(boxes_.begin() + ref.offset, ref.size, boxes.begin() + offset);
    std::copy_n(counts_.begin() + ref.offset, ref.size,
                counts.begin() + offset);
    ref.offset = offset;
    ref.capacity = capacity;
  }
  boxes_ = std::move(boxes);
  counts_ = std::move(counts);
  abandoned_ = 0;
}

std::uint32_t CsrProblem::lower_bound_in(const RowRef& ref,
                                         std::uint32_t box) const {
  const auto begin = boxes_.begin() + ref.offset;
  const auto it = std::lower_bound(begin, begin + ref.size, box);
  return static_cast<std::uint32_t>(it - begin);
}

}  // namespace p2pvod::flow
