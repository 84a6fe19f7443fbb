#include "flow/csr_matcher.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pvod::flow {

namespace {

/// Augment-call accounting. The multiset of augment() calls and their
/// outcomes is fixed by the round schedule (calls happen sequentially within
/// one trial), so both metrics are thread-count-invariant.
struct AugmentCounters {
  obs::Counter& calls;
  obs::Histogram& depth;
  static AugmentCounters& get() {
    static AugmentCounters counters{
        obs::MetricsRegistry::global().counter("flow/csr_augments"),
        obs::MetricsRegistry::global().histogram("flow/csr_augment_depth",
                                                 obs::pow2_bounds(12))};
    return counters;
  }
};

}  // namespace

CsrMatcher::CsrMatcher(std::uint32_t box_count)
    : degree_(box_count, 0),
      served_by_(box_count),
      visit_mark_(box_count, 0) {}

void CsrMatcher::ensure_rows(std::uint32_t rows) {
  for (auto slot = static_cast<std::uint32_t>(assignment_.size()); slot < rows;
       ++slot) {
    assignment_.push_back(-1);
    row_of_.push_back(slot);
    skip_.push_back(kNoSkip);
    ensure_cursor(slot);
  }
}

void CsrMatcher::bind(std::uint32_t slot, std::uint32_t row,
                      std::uint32_t skip) {
  row_of_.at(slot) = row;
  skip_[slot] = skip;
  ensure_cursor(row);
}

void CsrMatcher::ensure_cursor(std::uint32_t row) {
  if (row < cursor_.size()) return;
  cursor_.resize(static_cast<std::size_t>(row) + 1, 0);
  cursor_pass_.resize(static_cast<std::size_t>(row) + 1, 0);
}

void CsrMatcher::begin_pass() {
  if (pass_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(cursor_pass_.begin(), cursor_pass_.end(), 0u);
    pass_ = 0;
  }
  ++pass_;
  in_pass_ = true;
}

void CsrMatcher::unassign(std::uint32_t row) {
  const std::int32_t assigned = assignment_.at(row);
  if (assigned < 0) return;
  in_pass_ = false;
  assignment_[row] = -1;
  const auto box = static_cast<std::uint32_t>(assigned);
  auto& servings = served_by_[box];
  servings.erase(std::find(servings.begin(), servings.end(), row));
  --degree_[box];
}

void CsrMatcher::unassign_box(std::uint32_t box,
                              std::vector<std::uint32_t>& out) {
  auto& servings = served_by_.at(box);
  in_pass_ = false;
  for (const std::uint32_t row : servings) {
    assignment_[row] = -1;
    out.push_back(row);
  }
  servings.clear();
  degree_[box] = 0;
}

void CsrMatcher::next_epoch() {
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0u);
    epoch_ = 0;
  }
  ++epoch_;
}

bool CsrMatcher::augment(const CsrProblem& csr,
                         std::span<const std::uint32_t> capacity,
                         std::uint32_t row) {
  OBS_SPAN("flow/csr_augment");
  AugmentCounters& counters = AugmentCounters::get();
  counters.calls.add();
  std::size_t max_depth = 0;
  next_epoch();
  stack_.clear();
  std::uint32_t entering = row;  // the root, then each slot being displaced
  for (;;) {
    max_depth = std::max(max_depth, stack_.size() + 1);
    // Look-ahead: a free candidate ends the search here. Commit the whole
    // alternating path: `entering` takes the free slot; every ancestor
    // overwrites the serving its child vacated (served_by_ positions stay
    // put, so no vector churn along the path).
    const std::uint32_t entering_row = row_of_[entering];
    const auto candidates = csr.row(entering_row);
    const auto unsaturated = [&](std::uint32_t box) {
      return degree_[box] < capacity[box];
    };
    auto spare = candidates.begin();
    if (in_pass_ && cursor_pass_[entering_row] == pass_)
      spare += cursor_[entering_row];
    spare = std::find_if(spare, candidates.end(), unsaturated);
    if (in_pass_) {
      cursor_[entering_row] =
          static_cast<std::uint32_t>(spare - candidates.begin());
      cursor_pass_[entering_row] = pass_;
    }
    if (spare != candidates.end() && *spare == skip_[entering])
      spare = std::find_if(spare + 1, candidates.end(), unsaturated);
    if (spare != candidates.end()) {
      assignment_[entering] = static_cast<std::int32_t>(*spare);
      served_by_[*spare].push_back(entering);
      ++degree_[*spare];
      for (const Frame& parent : stack_) {
        const std::uint32_t parent_box = csr.row(parent.row)[parent.ci];
        served_by_[parent_box][parent.si] = parent.slot;
        assignment_[parent.slot] = static_cast<std::int32_t>(parent_box);
      }
      counters.depth.observe(max_depth);
      return true;
    }
    // No degree moves before the commit, so every candidate of every slot
    // on the stack is saturated: walk the depth-first search to the next
    // slot it could displace, each box visited once.
    stack_.push_back({entering, entering_row, 0, 0, false});
    for (;;) {
      if (stack_.empty()) {
        counters.depth.observe(max_depth);
        return false;
      }
      Frame& f = stack_.back();
      const auto boxes = csr.row(f.row);
      if (f.in_box) {
        const auto& servings = served_by_[boxes[f.ci]];
        if (f.si < servings.size()) {
          entering = servings[f.si];
          break;
        }
        f.in_box = false;
        ++f.ci;
      }
      const std::uint32_t own = skip_[f.slot];
      while (f.ci < boxes.size() &&
             (visit_mark_[boxes[f.ci]] == epoch_ || boxes[f.ci] == own))
        ++f.ci;
      if (f.ci < boxes.size()) {
        visit_mark_[boxes[f.ci]] = epoch_;
        f.in_box = true;
        f.si = 0;
        continue;
      }
      stack_.pop_back();
      if (!stack_.empty()) ++stack_.back().si;
    }
  }
}

}  // namespace p2pvod::flow
