#include "flow/csr_matcher.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pvod::flow {

namespace {

/// Augment-call accounting. The multiset of augment() calls and their
/// outcomes is fixed by the round schedule (calls happen sequentially within
/// one trial), so both metrics are thread-count-invariant; a matcher
/// publishes its tallies of them in bulk (see the header).
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

void CsrMatcher::reset(std::uint32_t box_count) {
  close_pass();
  assignment_.clear();
  row_of_.clear();
  skip_.clear();
  links_.clear();
  degree_.assign(box_count, 0);
  head_.assign(box_count, kNoSlot);
  tail_.assign(box_count, kNoSlot);
  assigned_ = 0;
  visit_mark_.assign(box_count, 0);
  epoch_ = 0;
  cursor_.clear();
  cursor_pass_.clear();
  pass_ = 0;
  stack_.clear();
}

void CsrMatcher::ensure_rows(std::uint32_t rows) {
  for (auto slot = static_cast<std::uint32_t>(assignment_.size()); slot < rows;
       ++slot) {
    assignment_.push_back(-1);
    row_of_.push_back(slot);
    skip_.push_back(kNoSkip);
    links_.emplace_back();
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

void CsrMatcher::close_pass() {
  in_pass_ = false;
  if (pending_calls_ != 0) publish_tallies();
}

void CsrMatcher::publish_tallies() {
  AugmentCounters& counters = AugmentCounters::get();
  counters.calls.add(pending_calls_);
  pending_calls_ = 0;
  for (std::size_t depth = 0; depth < kTalliedDepths; ++depth) {
    if (pending_depths_[depth] == 0) continue;
    counters.depth.observe(depth, pending_depths_[depth]);
    pending_depths_[depth] = 0;
  }
}

void CsrMatcher::link_tail(std::uint32_t box, std::uint32_t slot) {
  links_[slot] = {tail_[box], kNoSlot};
  if (tail_[box] != kNoSlot) {
    links_[tail_[box]].next = slot;
  } else {
    head_[box] = slot;
  }
  tail_[box] = slot;
}

void CsrMatcher::replace(std::uint32_t box, std::uint32_t old,
                         std::uint32_t slot) {
  const Link at = links_[old];
  links_[slot] = at;
  (at.prev != kNoSlot ? links_[at.prev].next : head_[box]) = slot;
  (at.next != kNoSlot ? links_[at.next].prev : tail_[box]) = slot;
}

void CsrMatcher::unlink(std::uint32_t box, std::uint32_t slot) {
  const Link at = links_[slot];
  (at.prev != kNoSlot ? links_[at.prev].next : head_[box]) = at.next;
  (at.next != kNoSlot ? links_[at.next].prev : tail_[box]) = at.prev;
}

void CsrMatcher::unassign(std::uint32_t row) {
  const std::int32_t assigned = assignment_.at(row);
  if (assigned < 0) return;
  if (in_pass_) close_pass();
  assignment_[row] = -1;
  const auto box = static_cast<std::uint32_t>(assigned);
  unlink(box, row);
  --degree_[box];
  --assigned_;
}

void CsrMatcher::unassign_box(std::uint32_t box,
                              std::vector<std::uint32_t>& out) {
  if (in_pass_) close_pass();
  for (std::uint32_t row = head_.at(box); row != kNoSlot;
       row = links_[row].next) {
    assignment_[row] = -1;
    out.push_back(row);
  }
  head_[box] = kNoSlot;
  tail_[box] = kNoSlot;
  assigned_ -= degree_[box];
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
  std::size_t max_depth = 0;
  // Tally the call; outside a pass, publish it at once.
  const auto finish = [&](bool served) {
    ++pending_calls_;
    if (max_depth < kTalliedDepths) {
      ++pending_depths_[max_depth];
    } else {
      AugmentCounters::get().depth.observe(max_depth);
    }
    if (!in_pass_) publish_tallies();
    return served;
  };
  next_epoch();
  stack_.clear();
  std::uint32_t entering = row;  // the root, then each slot being displaced
  for (;;) {
    max_depth = std::max(max_depth, stack_.size() + 1);
    // Look-ahead: a free candidate ends the search here. Commit the whole
    // alternating path: every ancestor, root first, takes its child's place
    // in the list of the box it displaced the child from (each reads its
    // child's links before the child's own replacement overwrites them);
    // then `entering` joins the free box's tail. That box has a spare slot,
    // so it is on no list the replacements touch.
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
      for (const Frame& parent : stack_) {
        const std::uint32_t parent_box = csr.row(parent.row)[parent.ci];
        replace(parent_box, parent.cur, parent.slot);
        assignment_[parent.slot] = static_cast<std::int32_t>(parent_box);
      }
      assignment_[entering] = static_cast<std::int32_t>(*spare);
      link_tail(*spare, entering);
      ++degree_[*spare];
      ++assigned_;
      return finish(true);
    }
    // No degree moves before the commit, so every candidate of every slot
    // on the stack is saturated: walk the depth-first search to the next
    // slot it could displace, each box visited once.
    stack_.push_back({entering, entering_row, 0, kNoSlot, false});
    for (;;) {
      if (stack_.empty()) return finish(false);
      Frame& f = stack_.back();
      const auto boxes = csr.row(f.row);
      if (f.in_box) {
        if (f.cur != kNoSlot) {
          entering = f.cur;
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
        f.cur = head_[boxes[f.ci]];
        continue;
      }
      stack_.pop_back();
      if (!stack_.empty()) stack_.back().cur = links_[stack_.back().cur].next;
    }
  }
}

}  // namespace p2pvod::flow
