// Tests for the CSR round engine: CsrProblem delta maintenance, CsrMatcher
// incremental repair, SparseRoundState's swarm-class rows, validate_assignment
// (the verify_incremental check), the ±delta capacity bookkeeping under
// churn, and whole runs checked against the Dinic oracle every round across
// churn / strict / override / adversarial / relay configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/permutation.hpp"
#include "flow/bipartite.hpp"
#include "flow/csr_matcher.hpp"
#include "flow/csr_problem.hpp"
#include "flow/verify.hpp"
#include "hetero/compensation.hpp"
#include "hetero/relay.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cache.hpp"
#include "sim/simulator.hpp"
#include "sim/sparse_round.hpp"
#include "sim/strategy.hpp"
#include "util/rng.hpp"
#include "workload/adversarial.hpp"
#include "workload/distinct.hpp"
#include "workload/flash_crowd.hpp"
#include "workload/limiter.hpp"
#include "workload/zipf.hpp"

namespace s = p2pvod::sim;
namespace m = p2pvod::model;
namespace a = p2pvod::alloc;
namespace f = p2pvod::flow;
namespace w = p2pvod::workload;
namespace h = p2pvod::hetero;

namespace {

p2pvod::obs::Counter& relocations() {
  return p2pvod::obs::MetricsRegistry::global().counter(
      "flow/csr_row_relocations");
}

p2pvod::obs::Counter& compactions() {
  return p2pvod::obs::MetricsRegistry::global().counter(
      "flow/csr_pool_compactions");
}

}  // namespace

// ------------------------------------------------------------- CsrProblem

TEST(CsrProblem, AddSourceKeepsRowsSortedUnique) {
  f::CsrProblem csr;
  csr.ensure_row(0);
  csr.add_source(0, 5);
  csr.add_source(0, 2);
  csr.add_source(0, 9);
  csr.add_source(0, 2);  // duplicate source of box 2: count bump, no new edge
  const auto row = csr.row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 2u);
  EXPECT_EQ(row[1], 5u);
  EXPECT_EQ(row[2], 9u);
  EXPECT_EQ(csr.edge_count(), 3u);
  EXPECT_TRUE(csr.contains(0, 5));
  EXPECT_FALSE(csr.contains(0, 4));
}

namespace {

/// remove_sources with a braced list of boxes.
std::uint32_t remove(f::CsrProblem& csr, std::uint32_t row,
                     std::vector<std::uint32_t> boxes) {
  return csr.remove_sources(row, boxes);
}

std::vector<std::uint32_t> row_of(const f::CsrProblem& csr, std::uint32_t r) {
  const auto row = csr.row(r);
  return {row.begin(), row.end()};
}

}  // namespace

TEST(CsrProblem, RemoveSourceHonorsCounts) {
  f::CsrProblem csr;
  csr.ensure_row(0);
  csr.add_source(0, 2);
  csr.add_source(0, 2);
  // First removal drops one of two sources: box 2 stays a candidate.
  EXPECT_EQ(remove(csr, 0, {2}), 0u);
  EXPECT_TRUE(csr.contains(0, 2));
  EXPECT_EQ(csr.edge_count(), 1u);
  // Second removal exhausts the count: the box leaves the row.
  EXPECT_EQ(remove(csr, 0, {2}), 1u);
  EXPECT_FALSE(csr.contains(0, 2));
  EXPECT_EQ(csr.edge_count(), 0u);
  // A miss is a tolerated no-op (the row was rebuilt since the grant).
  EXPECT_EQ(remove(csr, 0, {7}), 0u);
  EXPECT_EQ(remove(csr, 0, {}), 0u);
}

TEST(CsrProblem, RemoveSourcesDropsEachBoxItsOwnCount) {
  // Row {1:1, 3:2, 5:1, 8:3, 9:1}. One pass drops a source of 3, two of 5
  // (one more than it has), one of 8 and all of 9, and misses 4 and 12:
  // boxes 5 and 9 leave, 3 and 8 keep a source less, 1 is untouched.
  f::CsrProblem csr;
  csr.ensure_row(0);
  const std::vector<std::uint32_t> boxes = {1, 3, 5, 8, 9};
  const std::vector<std::uint32_t> counts = {1, 2, 1, 3, 1};
  csr.assign_row(0, boxes, counts);
  EXPECT_EQ(remove(csr, 0, {3, 4, 5, 5, 8, 9, 12}), 2u);
  EXPECT_EQ(row_of(csr, 0), (std::vector<std::uint32_t>{1, 3, 8}));
  EXPECT_EQ(csr.edge_count(), 3u);
  // What is left holds one source of 3 and two of 8.
  EXPECT_EQ(remove(csr, 0, {3, 8}), 1u);
  EXPECT_EQ(row_of(csr, 0), (std::vector<std::uint32_t>{1, 8}));
  EXPECT_EQ(remove(csr, 0, {8}), 1u);
  EXPECT_EQ(row_of(csr, 0), (std::vector<std::uint32_t>{1}));
  // Every box below, at and above the row's range, repeated: the row empties.
  EXPECT_EQ(remove(csr, 0, {0, 1, 1, 2}), 1u);
  EXPECT_EQ(csr.row(0).size(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
}

TEST(CsrProblem, RemoveSourcesMatchesOneOccurrenceAtATime) {
  // Random rows and random sorted batches with repeats and misses: one
  // merge pass must leave what dropping the batch's occurrences one at a
  // time leaves (a per-box count that falls to zero drops the box, and a
  // drop of an absent box is a no-op), touch no other row, and report how
  // many boxes left.
  p2pvod::util::Rng rng(0x5EB47C4);
  constexpr std::uint32_t kRows = 8;
  f::CsrProblem csr;
  csr.ensure_row(kRows - 1);
  std::vector<std::map<std::uint32_t, std::uint32_t>> truth(kRows);
  std::uint32_t left_total = 0;
  for (std::uint32_t step = 0; step < 3000; ++step) {
    const auto r = static_cast<std::uint32_t>(rng.next_below(kRows));
    const auto universe = static_cast<std::uint32_t>(rng.next_between(1, 40));
    if (rng.next_bool(0.5)) {
      const auto adds = rng.next_below(12);
      for (std::uint64_t i = 0; i < adds; ++i) {
        const auto box = static_cast<std::uint32_t>(rng.next_below(universe));
        csr.add_source(r, box);
        ++truth[r][box];
      }
      continue;
    }
    std::vector<std::uint32_t> batch(rng.next_below(10));
    for (auto& box : batch)
      box = static_cast<std::uint32_t>(rng.next_below(universe));
    std::sort(batch.begin(), batch.end());
    std::uint32_t left = 0;
    for (const std::uint32_t box : batch) {
      const auto it = truth[r].find(box);
      if (it == truth[r].end()) continue;
      if (--it->second == 0) {
        truth[r].erase(it);
        ++left;
      }
    }
    EXPECT_EQ(csr.remove_sources(r, batch), left) << "step " << step;
    left_total += left;
    for (std::uint32_t row = 0; row < kRows; ++row) {
      std::vector<std::uint32_t> expected;
      for (const auto& [box, count] : truth[row]) expected.push_back(box);
      ASSERT_EQ(row_of(csr, row), expected) << "step " << step;
    }
  }
  // The counts, not only the membership: drain every row one box at a time.
  std::uint64_t edges = 0;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    edges += truth[r].size();
    for (const auto& [box, count] : truth[r]) {
      const std::vector<std::uint32_t> all(count, box);
      EXPECT_EQ(csr.remove_sources(r, std::span(all).first(count - 1)), 0u);
      EXPECT_EQ(remove(csr, r, {box}), 1u);
    }
    EXPECT_EQ(csr.row(r).size(), 0u);
  }
  EXPECT_GT(left_total, 100u);
  EXPECT_GT(edges, 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
}

TEST(CsrProblem, RemoveBoxDropsAllSourcesAtOnce) {
  f::CsrProblem csr;
  csr.ensure_row(0);
  csr.add_source(0, 4);
  csr.add_source(0, 4);
  csr.add_source(0, 4);
  csr.add_source(0, 6);
  csr.remove_box(0, 4);
  EXPECT_FALSE(csr.contains(0, 4));
  EXPECT_TRUE(csr.contains(0, 6));
  EXPECT_EQ(csr.edge_count(), 1u);
  csr.remove_box(0, 99);  // miss: no-op
  EXPECT_EQ(csr.edge_count(), 1u);
}

TEST(CsrProblem, AssignRowReplacesAndClearRowEmpties) {
  f::CsrProblem csr;
  csr.ensure_row(1);
  csr.add_source(1, 3);
  const std::vector<std::uint32_t> boxes = {1, 4, 8};
  const std::vector<std::uint32_t> counts = {1, 2, 1};
  csr.assign_row(1, boxes, counts);
  ASSERT_EQ(csr.row(1).size(), 3u);
  EXPECT_FALSE(csr.contains(1, 3));
  EXPECT_TRUE(csr.contains(1, 4));
  EXPECT_EQ(csr.edge_count(), 3u);
  // Counted membership survives the bulk assignment.
  EXPECT_EQ(remove(csr, 1, {4}), 0u);
  EXPECT_EQ(remove(csr, 1, {4}), 1u);
  csr.clear_row(1);
  EXPECT_EQ(csr.row(1).size(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
}

TEST(CsrProblem, RelocationAndCompactionStress) {
  // Interleaved growth across rows forces relocations, whose abandoned spans
  // compaction must fold without corrupting survivors; rare clears empty a
  // row in place. A per-row reference map is the ground truth.
  f::CsrProblem csr;
  constexpr std::uint32_t kRows = 64;
  std::vector<std::map<std::uint32_t, std::uint32_t>> truth(kRows);
  for (std::uint32_t r = 0; r < kRows; ++r) csr.ensure_row(r);
  const std::uint64_t compactions_before = compactions().value();
  p2pvod::util::Rng rng(0xC5A11);
  for (std::uint32_t step = 0; step < 40000; ++step) {
    const auto r = static_cast<std::uint32_t>(rng.next_below(kRows));
    const auto box = static_cast<std::uint32_t>(rng.next_below(256));
    const double roll = rng.next_double();
    if (roll < 0.60) {
      csr.add_source(r, box);
      ++truth[r][box];
    } else if (roll < 0.98) {
      const std::uint32_t left = remove(csr, r, {box});
      auto it = truth[r].find(box);
      if (it == truth[r].end()) {
        EXPECT_EQ(left, 0u);
      } else {
        EXPECT_EQ(left, it->second == 1 ? 1u : 0u);
        if (--it->second == 0) truth[r].erase(it);
      }
    } else {
      csr.clear_row(r);
      truth[r].clear();
    }
  }
  std::uint64_t edges = 0;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const auto row = csr.row(r);
    ASSERT_EQ(row.size(), truth[r].size()) << "row " << r;
    std::size_t i = 0;
    for (const auto& [box, count] : truth[r]) {
      EXPECT_EQ(row[i], box) << "row " << r << " slot " << i;
      (void)count;
      ++i;
    }
    edges += row.size();
  }
  EXPECT_EQ(csr.edge_count(), edges);
  EXPECT_GT(compactions().value(), compactions_before);
  // Compaction keeps the pool proportional to live content, not churn.
  EXPECT_LT(csr.pool_size(), 8192u);
}

namespace {

/// What a CsrProblem does under a seeded edit sequence: the pool size and
/// edge total after every edit, the relocations and compactions it counted,
/// and its rows at the end.
struct CsrTrace {
  std::vector<std::pair<std::size_t, std::uint64_t>> sizes;
  std::uint64_t relocations = 0;
  std::uint64_t compactions = 0;
  std::vector<std::vector<std::uint32_t>> rows;
};

CsrTrace trace_edits(f::CsrProblem& csr, std::uint64_t seed) {
  constexpr std::uint32_t kRows = 48;
  CsrTrace trace;
  const std::uint64_t relocations_before = relocations().value();
  const std::uint64_t compactions_before = compactions().value();
  for (std::uint32_t r = 0; r < kRows; ++r) csr.ensure_row(r);
  p2pvod::util::Rng rng(seed);
  for (std::uint32_t step = 0; step < 12000; ++step) {
    const auto r = static_cast<std::uint32_t>(rng.next_below(kRows));
    const auto box = static_cast<std::uint32_t>(rng.next_below(256));
    const double roll = rng.next_double();
    if (roll < 0.60) {
      csr.add_source(r, box);
    } else if (roll < 0.98) {
      const std::vector<std::uint32_t> one = {box};
      csr.remove_sources(r, one);
    } else {
      csr.clear_row(r);
    }
    trace.sizes.emplace_back(csr.pool_size(), csr.edge_count());
  }
  trace.relocations = relocations().value() - relocations_before;
  trace.compactions = compactions().value() - compactions_before;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const auto row = csr.row(r);
    trace.rows.emplace_back(row.begin(), row.end());
  }
  return trace;
}

}  // namespace

TEST(CsrProblem, ClearedProblemEditsAsANewOne) {
  // clear() keeps the pool's storage but no span, count or abandoned total:
  // the same edits then relocate, compact and size the pool exactly as on
  // a new problem, whatever the problem held before.
  f::CsrProblem reused;
  const CsrTrace before = trace_edits(reused, 0xC1EA);
  EXPECT_GT(before.compactions, 0u);
  reused.clear();
  EXPECT_EQ(reused.row_count(), 0u);
  EXPECT_EQ(reused.edge_count(), 0u);
  EXPECT_EQ(reused.pool_size(), 0u);
  const CsrTrace after_clear = trace_edits(reused, 0xC1EB);
  f::CsrProblem fresh;
  const CsrTrace expected = trace_edits(fresh, 0xC1EB);
  EXPECT_GT(expected.compactions, 0u);
  EXPECT_EQ(after_clear.relocations, expected.relocations);
  EXPECT_EQ(after_clear.compactions, expected.compactions);
  EXPECT_TRUE(after_clear.sizes == expected.sizes);
  EXPECT_EQ(after_clear.rows, expected.rows);
}

TEST(CsrProblem, ClearedRowRefillsItsSpan) {
  // A retired request's slot is recycled by the next one: the cleared row
  // keeps its span, so a smaller refill lands in place.
  f::CsrProblem csr;
  csr.ensure_row(0);
  const std::vector<std::uint32_t> five = {1, 3, 5, 7, 9};
  const std::vector<std::uint32_t> three = {2, 4, 6};
  const std::vector<std::uint32_t> ones(5, 1);
  csr.assign_row(0, five, ones);
  const std::uint64_t relocations_before = relocations().value();
  const std::size_t pool_before = csr.pool_size();
  csr.clear_row(0);
  EXPECT_EQ(csr.row(0).size(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
  csr.assign_row(0, three, std::span(ones).first(3));
  EXPECT_EQ(relocations().value() - relocations_before, 0u);
  EXPECT_EQ(csr.pool_size(), pool_before);
  const auto row = csr.row(0);
  EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), three);
  EXPECT_EQ(csr.edge_count(), 3u);
}

// ------------------------------------------------------------- CsrMatcher

namespace {

struct MatchState {
  std::vector<std::int32_t> assignment;  ///< per row
  std::vector<std::uint32_t> degree;     ///< per box
};

MatchState snapshot(const f::CsrMatcher& matcher, std::uint32_t rows,
                    std::size_t boxes) {
  MatchState state;
  for (std::uint32_t r = 0; r < rows; ++r)
    state.assignment.push_back(matcher.assignment(r));
  for (std::uint32_t b = 0; b < boxes; ++b)
    state.degree.push_back(matcher.degree(b));
  return state;
}

/// augment(row) with the contract of one call checked. A success serves
/// `row`, grows exactly one box's degree by one, keeps every row served
/// before served, and leaves each served row on one of its candidates with
/// no box over capacity; a failure changes nothing. `moved` counts served
/// rows the call rerouted to another box.
bool checked_augment(f::CsrMatcher& matcher, const f::CsrProblem& csr,
                     const std::vector<std::uint32_t>& cap, std::uint32_t row,
                     std::uint32_t& moved) {
  const std::uint32_t rows = csr.row_count();
  const MatchState before = snapshot(matcher, rows, cap.size());
  const bool ok = matcher.augment(csr, cap, row);
  const MatchState after = snapshot(matcher, rows, cap.size());
  if (!ok) {
    EXPECT_EQ(after.assignment, before.assignment) << "failed augment moved";
    EXPECT_EQ(after.degree, before.degree) << "failed augment moved";
    return false;
  }
  EXPECT_GE(after.assignment[row], 0);
  std::uint32_t grown = 0;
  for (std::size_t b = 0; b < cap.size(); ++b) {
    if (after.degree[b] == before.degree[b] + 1) {
      ++grown;
    } else {
      EXPECT_EQ(after.degree[b], before.degree[b]) << "box " << b;
    }
  }
  EXPECT_EQ(grown, 1u);
  std::vector<std::uint32_t> load(cap.size(), 0);
  for (std::uint32_t r = 0; r < rows; ++r) {
    if (before.assignment[r] >= 0) {
      EXPECT_GE(after.assignment[r], 0) << "row " << r << " lost its server";
      if (after.assignment[r] != before.assignment[r]) ++moved;
    } else if (r != row) {
      EXPECT_EQ(after.assignment[r], -1) << "row " << r;
    }
    if (after.assignment[r] < 0) continue;
    const auto box = static_cast<std::uint32_t>(after.assignment[r]);
    EXPECT_TRUE(csr.contains(r, box)) << "row " << r << " box " << box;
    ++load[box];
  }
  EXPECT_EQ(load, after.degree);
  for (std::size_t b = 0; b < cap.size(); ++b) EXPECT_LE(load[b], cap[b]);
  return true;
}

/// Random candidate rows over `boxes` boxes (each box a candidate with
/// probability 1/4), mirrored into a ConnectionProblem for the Dinic oracle.
void random_rows(p2pvod::util::Rng& rng, std::uint32_t rows,
                 const std::vector<std::uint32_t>& cap, f::CsrProblem& csr,
                 f::ConnectionProblem& dense) {
  const auto boxes = static_cast<std::uint32_t>(cap.size());
  csr.ensure_row(rows - 1);
  dense.set_capacities(cap);
  for (std::uint32_t r = 0; r < rows; ++r) {
    std::vector<std::uint32_t> cands;
    for (std::uint32_t b = 0; b < boxes; ++b) {
      if (rng.next_bool(0.25)) {
        csr.add_source(r, b);
        cands.push_back(b);
      }
    }
    dense.add_request(std::move(cands));
  }
}

}  // namespace

TEST(CsrMatcher, AugmentDisplacesAlongAlternatingPath) {
  f::CsrProblem csr;
  csr.ensure_row(1);
  csr.add_source(0, 0);  // row 0 can only use box 0
  csr.add_source(1, 0);  // row 1 can use either
  csr.add_source(1, 1);
  const std::vector<std::uint32_t> cap = {1, 1};
  f::CsrMatcher matcher(2);
  matcher.ensure_rows(2);
  // Row 1 grabs box 0 first (sorted candidate order)...
  EXPECT_TRUE(matcher.augment(csr, cap, 1));
  EXPECT_EQ(matcher.assignment(1), 0);
  // ...so serving row 0 must displace row 1 onto box 1.
  EXPECT_TRUE(matcher.augment(csr, cap, 0));
  EXPECT_EQ(matcher.assignment(0), 0);
  EXPECT_EQ(matcher.assignment(1), 1);
  EXPECT_EQ(matcher.degree(0), 1u);
  EXPECT_EQ(matcher.degree(1), 1u);
}

TEST(CsrMatcher, AugmentTakesFreeCandidateBeforeDisplacing) {
  // Row 1's first candidate is taken but its second is free: the search
  // takes the free slot instead of displacing row 0 onto box 2.
  f::CsrProblem csr;
  csr.ensure_row(1);
  csr.add_source(0, 0);
  csr.add_source(0, 2);
  csr.add_source(1, 0);
  csr.add_source(1, 1);
  const std::vector<std::uint32_t> cap = {1, 1, 1};
  f::CsrMatcher matcher(3);
  matcher.ensure_rows(2);
  EXPECT_TRUE(matcher.augment(csr, cap, 0));
  EXPECT_TRUE(matcher.augment(csr, cap, 1));
  EXPECT_EQ(matcher.assignment(0), 0);
  EXPECT_EQ(matcher.assignment(1), 1);
  EXPECT_EQ(matcher.degree(2), 0u);
}

TEST(CsrMatcher, AugmentFailsWhenNoPathExists) {
  f::CsrProblem csr;
  csr.ensure_row(1);
  csr.add_source(0, 0);
  csr.add_source(1, 0);
  const std::vector<std::uint32_t> cap = {1, 0};
  f::CsrMatcher matcher(2);
  matcher.ensure_rows(2);
  EXPECT_TRUE(matcher.augment(csr, cap, 0));
  EXPECT_FALSE(matcher.augment(csr, cap, 1));
  EXPECT_EQ(matcher.assignment(1), -1);
  EXPECT_EQ(matcher.assignment(0), 0);  // failed search left the matching alone
}

TEST(CsrMatcher, UnassignBoxReleasesItsRows) {
  f::CsrProblem csr;
  csr.ensure_row(2);
  csr.add_source(0, 0);
  csr.add_source(1, 0);
  csr.add_source(2, 1);
  const std::vector<std::uint32_t> cap = {2, 1};
  f::CsrMatcher matcher(2);
  matcher.ensure_rows(3);
  EXPECT_TRUE(matcher.augment(csr, cap, 0));
  EXPECT_TRUE(matcher.augment(csr, cap, 1));
  EXPECT_TRUE(matcher.augment(csr, cap, 2));
  std::vector<std::uint32_t> hit;
  matcher.unassign_box(0, hit);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(matcher.assignment(0), -1);
  EXPECT_EQ(matcher.assignment(1), -1);
  EXPECT_EQ(matcher.assignment(2), 1);
  EXPECT_EQ(matcher.degree(0), 0u);
}

TEST(CsrMatcher, ExhaustiveAugmentationMatchesDenseSolve) {
  // Berge: augmenting every unmatched row from any partial matching reaches a
  // maximum matching — so the served count must equal ConnectionProblem's.
  // Every call must also keep checked_augment's per-call contract.
  p2pvod::util::Rng rng(0xBE26E);
  for (int trial = 0; trial < 20; ++trial) {
    constexpr std::uint32_t kBoxes = 16;
    const auto rows = static_cast<std::uint32_t>(rng.next_between(1, 40));
    std::vector<std::uint32_t> cap(kBoxes);
    for (auto& c : cap) c = static_cast<std::uint32_t>(rng.next_below(4));
    f::CsrProblem csr;
    f::ConnectionProblem dense(kBoxes);
    random_rows(rng, rows, cap, csr, dense);
    f::CsrMatcher matcher(kBoxes);
    matcher.ensure_rows(rows);
    std::uint32_t served = 0;
    std::uint32_t moved = 0;
    for (std::uint32_t r = 0; r < rows; ++r) {
      if (checked_augment(matcher, csr, cap, r, moved)) ++served;
    }
    EXPECT_EQ(served, dense.solve().served) << "trial " << trial;
  }
}

TEST(CsrMatcher, DescendingAugmentsKeepEveryServedRow) {
  // Every box has capacity and there are about as many rows as slots, so
  // late searches find their candidates saturated and must displace. After
  // a first exhaustive pass, dropping a third of the connections and
  // re-augmenting (the cross-round repair) must again reach the maximum.
  p2pvod::util::Rng rng(0xDE5C3);
  std::uint32_t moved = 0;
  for (int trial = 0; trial < 20; ++trial) {
    constexpr std::uint32_t kBoxes = 16;
    std::vector<std::uint32_t> cap(kBoxes);
    std::uint32_t slots = 0;
    for (auto& c : cap) {
      c = static_cast<std::uint32_t>(rng.next_between(1, 3));
      slots += c;
    }
    const auto rows = static_cast<std::uint32_t>(
        rng.next_between(slots - 2, slots + 2));
    f::CsrProblem csr;
    f::ConnectionProblem dense(kBoxes);
    random_rows(rng, rows, cap, csr, dense);
    const std::uint32_t maximum = dense.solve().served;
    f::CsrMatcher matcher(kBoxes);
    matcher.ensure_rows(rows);
    for (int pass = 0; pass < 2; ++pass) {
      std::uint32_t served = 0;
      for (std::uint32_t r = 0; r < rows; ++r) {
        if (matcher.assignment(r) >= 0 ||
            checked_augment(matcher, csr, cap, r, moved))
          ++served;
      }
      EXPECT_EQ(served, maximum) << "trial " << trial << " pass " << pass;
      for (std::uint32_t r = 0; r < rows; ++r) {
        if (rng.next_bool(1.0 / 3.0)) matcher.unassign(r);
      }
    }
  }
  EXPECT_GT(moved, 0u) << "no search displaced a served row";
}

TEST(CsrMatcher, PassCursorPicksWhatAFullScanPicks) {
  // Slots share rows, several per row and each skipping its own box, as the
  // requests of one swarm class do. Within a pass each row keeps a cursor
  // past its saturated prefix: the matching must equal the one full scans
  // build, augment for augment, also once a dropped connection has ended
  // the pass, and stay maximum for the candidates "row minus skip".
  p2pvod::util::Rng rng(0xC0125);
  for (int trial = 0; trial < 40; ++trial) {
    constexpr std::uint32_t kBoxes = 24;
    const auto rows = static_cast<std::uint32_t>(rng.next_between(1, 6));
    const auto slots = static_cast<std::uint32_t>(rng.next_between(1, 40));
    std::vector<std::uint32_t> cap(kBoxes);
    for (auto& c : cap) c = static_cast<std::uint32_t>(rng.next_below(3));
    f::CsrProblem csr;
    csr.ensure_row(rows - 1);
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t b = 0; b < kBoxes; ++b) {
        if (rng.next_bool(0.4)) csr.add_source(r, b);
      }
    }
    f::CsrMatcher with_pass(kBoxes);
    f::CsrMatcher plain(kBoxes);
    with_pass.ensure_rows(slots);
    plain.ensure_rows(slots);
    f::ConnectionProblem dense(kBoxes);
    dense.set_capacities(cap);
    std::vector<std::uint32_t> skip(slots);
    for (std::uint32_t s = 0; s < slots; ++s) {
      const auto row = static_cast<std::uint32_t>(rng.next_below(rows));
      skip[s] = static_cast<std::uint32_t>(rng.next_below(kBoxes));
      with_pass.bind(s, row, skip[s]);
      plain.bind(s, row, skip[s]);
      std::vector<std::uint32_t> candidates;
      for (const std::uint32_t box : csr.row(row)) {
        if (box != skip[s]) candidates.push_back(box);
      }
      dense.add_request(std::move(candidates));
    }
    const std::uint32_t maximum = dense.solve().served;
    for (int pass = 0; pass < 2; ++pass) {
      with_pass.begin_pass();
      std::uint32_t served = 0;
      for (std::uint32_t s = 0; s < slots; ++s) {
        if (pass == 1 && s == slots / 2) {  // ends with_pass's pass
          with_pass.unassign(s / 2);
          plain.unassign(s / 2);
        }
        if (plain.assignment(s) < 0) {
          const bool ok = plain.augment(csr, cap, s);
          ASSERT_EQ(with_pass.augment(csr, cap, s), ok)
              << "trial " << trial << " slot " << s;
        }
        for (std::uint32_t t = 0; t < slots; ++t) {
          ASSERT_EQ(with_pass.assignment(t), plain.assignment(t))
              << "trial " << trial << " slot " << t;
        }
        EXPECT_NE(plain.assignment(s), static_cast<std::int32_t>(skip[s]));
        if (plain.assignment(s) >= 0) ++served;
      }
      with_pass.end_pass();
      if (pass == 0) {
        EXPECT_EQ(served, maximum) << "trial " << trial;
      }
      for (std::uint32_t s = 0; s < slots; ++s) {
        if (!rng.next_bool(1.0 / 3.0)) continue;
        with_pass.unassign(s);
        plain.unassign(s);
      }
    }
  }
}

namespace {

/// The matcher as it stood with a std::vector of servings per box: the
/// oracle for the serving lists. A new serving is appended, a displacement
/// overwrites the child's position, a removal erases in place; no pass
/// cursor (a pass picks what a full scan picks) and no metrics.
class VectorMatcher {
 public:
  explicit VectorMatcher(std::uint32_t boxes)
      : degree_(boxes, 0), served_by_(boxes), visit_mark_(boxes, 0) {}

  void ensure_rows(std::uint32_t rows) {
    for (auto slot = static_cast<std::uint32_t>(assignment_.size());
         slot < rows; ++slot) {
      assignment_.push_back(-1);
      row_of_.push_back(slot);
      skip_.push_back(f::CsrMatcher::kNoSkip);
    }
  }
  void bind(std::uint32_t slot, std::uint32_t row, std::uint32_t skip) {
    row_of_.at(slot) = row;
    skip_[slot] = skip;
  }
  [[nodiscard]] std::int32_t assignment(std::uint32_t slot) const {
    return assignment_.at(slot);
  }
  [[nodiscard]] std::uint32_t degree(std::uint32_t box) const {
    return degree_.at(box);
  }
  [[nodiscard]] const std::vector<std::uint32_t>& servings(
      std::uint32_t box) const {
    return served_by_.at(box);
  }
  void unassign(std::uint32_t slot) {
    const std::int32_t assigned = assignment_.at(slot);
    if (assigned < 0) return;
    assignment_[slot] = -1;
    auto& servings = served_by_[static_cast<std::uint32_t>(assigned)];
    servings.erase(std::find(servings.begin(), servings.end(), slot));
    --degree_[static_cast<std::uint32_t>(assigned)];
  }
  void unassign_box(std::uint32_t box, std::vector<std::uint32_t>& out) {
    for (const std::uint32_t slot : served_by_.at(box)) {
      assignment_[slot] = -1;
      out.push_back(slot);
    }
    served_by_[box].clear();
    degree_[box] = 0;
  }
  bool augment(const f::CsrProblem& csr, const std::vector<std::uint32_t>& cap,
               std::uint32_t slot) {
    struct Frame {
      std::uint32_t slot;
      std::uint32_t row;
      std::uint32_t ci;
      std::uint32_t si;
      bool in_box;
    };
    ++epoch_;
    std::vector<Frame> stack;
    std::uint32_t entering = slot;
    const auto unsaturated = [&](std::uint32_t box) {
      return degree_[box] < cap[box];
    };
    for (;;) {
      const auto candidates = csr.row(row_of_[entering]);
      auto spare =
          std::find_if(candidates.begin(), candidates.end(), unsaturated);
      if (spare != candidates.end() && *spare == skip_[entering])
        spare = std::find_if(spare + 1, candidates.end(), unsaturated);
      if (spare != candidates.end()) {
        assignment_[entering] = static_cast<std::int32_t>(*spare);
        served_by_[*spare].push_back(entering);
        ++degree_[*spare];
        for (const Frame& parent : stack) {
          const std::uint32_t box = csr.row(parent.row)[parent.ci];
          served_by_[box][parent.si] = parent.slot;
          assignment_[parent.slot] = static_cast<std::int32_t>(box);
        }
        return true;
      }
      stack.push_back({entering, row_of_[entering], 0, 0, false});
      for (;;) {
        if (stack.empty()) return false;
        Frame& frame = stack.back();
        const auto boxes = csr.row(frame.row);
        if (frame.in_box) {
          const auto& servings = served_by_[boxes[frame.ci]];
          if (frame.si < servings.size()) {
            entering = servings[frame.si];
            break;
          }
          frame.in_box = false;
          ++frame.ci;
        }
        while (frame.ci < boxes.size() &&
               (visit_mark_[boxes[frame.ci]] == epoch_ ||
                boxes[frame.ci] == skip_[frame.slot]))
          ++frame.ci;
        if (frame.ci < boxes.size()) {
          visit_mark_[boxes[frame.ci]] = epoch_;
          frame.in_box = true;
          frame.si = 0;
          continue;
        }
        stack.pop_back();
        if (!stack.empty()) ++stack.back().si;
      }
    }
  }

 private:
  std::vector<std::int32_t> assignment_;
  std::vector<std::uint32_t> row_of_;
  std::vector<std::uint32_t> skip_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::vector<std::uint32_t>> served_by_;
  std::vector<std::uint32_t> visit_mark_;
  std::uint32_t epoch_ = 0;
};

/// `box`'s servings in list order.
std::vector<std::uint32_t> serving_list(const f::CsrMatcher& matcher,
                                        std::uint32_t box) {
  std::vector<std::uint32_t> slots;
  for (std::uint32_t slot = matcher.first_serving(box);
       slot != f::CsrMatcher::kNoSlot; slot = matcher.next_serving(slot))
    slots.push_back(slot);
  return slots;
}

}  // namespace

TEST(CsrMatcher, ServingListsKeepTheVectorOrder) {
  // Random sequences of binds, augments inside and outside passes, single
  // and bulk unassigns and row edits, run on the list matcher and on the
  // vector oracle: after every operation both hold the same assignment,
  // degrees and serving order per box, and every augment gives the same
  // result.
  p2pvod::util::Rng rng(0x5E1F);
  std::uint32_t displaced = 0;
  std::uint32_t deep = 0;
  for (int trial = 0; trial < 30; ++trial) {
    constexpr std::uint32_t kBoxes = 10;
    const auto rows = static_cast<std::uint32_t>(rng.next_between(1, 5));
    const auto slots = static_cast<std::uint32_t>(rng.next_between(4, 36));
    std::vector<std::uint32_t> cap(kBoxes);
    for (auto& c : cap) c = static_cast<std::uint32_t>(rng.next_below(4));
    f::CsrProblem csr;
    csr.ensure_row(rows - 1);
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t b = 0; b < kBoxes; ++b) {
        if (rng.next_bool(0.35)) csr.add_source(r, b);
      }
    }
    f::CsrMatcher lists(kBoxes);
    VectorMatcher vectors(kBoxes);
    lists.ensure_rows(slots);
    vectors.ensure_rows(slots);
    std::vector<std::uint32_t> row_of(slots);
    const auto bind = [&](std::uint32_t slot, std::uint32_t box) {
      row_of[slot] = static_cast<std::uint32_t>(rng.next_below(rows));
      const std::uint32_t skip =
          rng.next_bool(0.7) ? box : f::CsrMatcher::kNoSkip;
      lists.bind(slot, row_of[slot], skip);
      vectors.bind(slot, row_of[slot], skip);
    };
    for (std::uint32_t slot = 0; slot < slots; ++slot)
      bind(slot, static_cast<std::uint32_t>(rng.next_below(kBoxes)));
    bool in_pass = false;
    for (int op = 0; op < 300; ++op) {
      const auto slot = static_cast<std::uint32_t>(rng.next_below(slots));
      const auto box = static_cast<std::uint32_t>(rng.next_below(kBoxes));
      const auto row = static_cast<std::uint32_t>(rng.next_below(rows));
      switch (rng.next_below(9)) {
        case 0:  // rebind an unassigned slot
          if (vectors.assignment(slot) < 0) bind(slot, box);
          break;
        case 1:  // open or close a pass
          if (in_pass) {
            lists.end_pass();
          } else {
            lists.begin_pass();
          }
          in_pass = !in_pass;
          break;
        case 2:  // dropping a connection ends the pass
          if (vectors.assignment(slot) >= 0) in_pass = false;
          lists.unassign(slot);
          vectors.unassign(slot);
          break;
        case 3: {
          std::vector<std::uint32_t> from_lists;
          std::vector<std::uint32_t> from_vectors;
          lists.unassign_box(box, from_lists);
          vectors.unassign_box(box, from_vectors);
          ASSERT_EQ(from_lists, from_vectors) << "trial " << trial;
          in_pass = false;
          break;
        }
        case 4:  // rows change only between passes
          if (in_pass) break;
          if (rng.next_bool(0.5)) {
            csr.add_source(row, box);
            break;
          }
          if (!csr.remove_box(row, box)) break;
          // The row's slots that box served lose their server.
          for (const std::uint32_t t : std::vector<std::uint32_t>(
                   vectors.servings(box))) {
            if (row_of[t] != row) continue;
            lists.unassign(t);
            vectors.unassign(t);
          }
          break;
        default: {  // augment
          if (vectors.assignment(slot) >= 0) break;
          std::vector<std::int32_t> before(slots);
          for (std::uint32_t t = 0; t < slots; ++t)
            before[t] = vectors.assignment(t);
          const bool ok = vectors.augment(csr, cap, slot);
          ASSERT_EQ(lists.augment(csr, cap, slot), ok)
              << "trial " << trial << " op " << op;
          std::uint32_t moved = 0;
          for (std::uint32_t t = 0; t < slots; ++t) {
            if (before[t] >= 0 && vectors.assignment(t) != before[t]) ++moved;
          }
          displaced += moved;
          if (moved >= 2) ++deep;
          break;
        }
      }
      for (std::uint32_t t = 0; t < slots; ++t) {
        ASSERT_EQ(lists.assignment(t), vectors.assignment(t))
            << "trial " << trial << " op " << op << " slot " << t;
      }
      for (std::uint32_t b = 0; b < kBoxes; ++b) {
        ASSERT_EQ(lists.degree(b), vectors.degree(b));
        ASSERT_EQ(serving_list(lists, b), vectors.servings(b))
            << "trial " << trial << " op " << op << " box " << b;
      }
    }
    if (in_pass) lists.end_pass();
  }
  EXPECT_GT(displaced, 0u) << "no augment displaced a served slot";
  EXPECT_GT(deep, 0u) << "no augment displaced two served slots";
}

TEST(CsrMatcher, AugmentMetricsCountEveryCall) {
  // One scripted sequence of augments, run outside any pass and again in
  // passes, one of which an unassign ends midway: both runs publish one
  // flow/csr_augments per call and the same flow/csr_augment_depth
  // observations. The chain makes one path deeper than the per-depth
  // tallies reach, and the last call fails.
  constexpr std::uint32_t kChain = 40;
  f::CsrProblem csr;
  csr.ensure_row(kChain + 1);
  for (std::uint32_t r = 0; r < kChain; ++r) {  // slot r: boxes r and r + 1
    csr.add_source(r, r);
    csr.add_source(r, r + 1);
  }
  csr.add_source(kChain, 0);  // slot kChain: box 0, the chain's left end
  csr.add_source(kChain + 1, kChain);  // the next: its right end
  const std::vector<std::uint32_t> cap(kChain + 1, 1);
  auto& registry = p2pvod::obs::MetricsRegistry::global();

  const auto run = [&](bool passes) {
    const auto before = registry.snapshot();
    f::CsrMatcher matcher(kChain + 1);
    matcher.ensure_rows(kChain + 2);
    std::vector<bool> results;
    if (passes) matcher.begin_pass();
    for (std::uint32_t slot = 0; slot < kChain; ++slot) {
      results.push_back(matcher.augment(csr, cap, slot));
      if (slot == kChain / 2) {
        matcher.unassign(2);  // ends the pass
        results.push_back(matcher.augment(csr, cap, 2));
        if (passes) matcher.begin_pass();
      }
    }
    results.push_back(matcher.augment(csr, cap, kChain));      // kChain deep
    results.push_back(matcher.augment(csr, cap, kChain + 1));  // no path
    if (passes) matcher.end_pass();
    return std::make_pair(results,
                          registry.snapshot().delta_since(before).values);
  };
  const auto [plain_results, plain] = run(false);
  const auto [pass_results, in_passes] = run(true);
  EXPECT_EQ(pass_results, plain_results);
  ASSERT_EQ(plain_results.size(), kChain + 3);
  EXPECT_TRUE(plain_results[kChain + 1]);
  EXPECT_FALSE(plain_results.back());

  const auto& calls = plain.at("flow/csr_augments");
  const auto& depth = plain.at("flow/csr_augment_depth");
  EXPECT_EQ(calls.count, kChain + 3);
  EXPECT_EQ(depth.count, kChain + 3);
  EXPECT_GT(depth.sum, 2u * (kChain + 1));  // both chain searches go deep
  EXPECT_EQ(depth.buckets.back(), 0u);      // nothing past 4096
  EXPECT_EQ(in_passes.at("flow/csr_augments"), calls);
  EXPECT_EQ(in_passes.at("flow/csr_augment_depth"), depth);
}

// ----------------------------------------------------- validate_assignment

namespace {

/// 2 boxes (caps 1 and 2), three requests; request 1 can use either box.
f::ConnectionProblem tiny_problem() {
  f::ConnectionProblem problem(2);
  problem.set_capacity(0, 1);
  problem.set_capacity(1, 2);
  problem.add_request({0});
  problem.add_request({0, 1});
  problem.add_request({1});
  return problem;
}

}  // namespace

TEST(ValidateAssignment, AcceptsSolverOutput) {
  const auto problem = tiny_problem();
  const auto result = problem.solve();
  EXPECT_NO_THROW(f::validate_assignment(problem, result));
}

TEST(ValidateAssignment, RejectsServerOutsideCandidateSet) {
  // Regression for the verifier bugfix: same served count as a correct
  // matching, but request 1's server is not in its candidate set. The old
  // served-count-only check accepted exactly this.
  const auto problem = tiny_problem();
  f::MatchResult bogus;
  bogus.assignment = {0, 2, 1};  // box 2 does not exist for request 1
  bogus.served = 3;
  bogus.complete = true;
  EXPECT_THROW(f::validate_assignment(problem, bogus), std::logic_error);
  f::MatchResult off_list;
  off_list.assignment = {0, 1, 1};
  off_list.served = 3;
  off_list.complete = true;
  // request 0 assigned box 1, which is not a candidate of request 0
  off_list.assignment = {1, 0, 1};
  try {
    f::validate_assignment(problem, off_list);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("request 0"), std::string::npos)
        << e.what();
  }
}

TEST(ValidateAssignment, RejectsCapacityOverflow) {
  const auto problem = tiny_problem();
  f::MatchResult bogus;
  bogus.assignment = {0, 0, 1};  // box 0 (cap 1) serves two requests
  bogus.served = 3;
  bogus.complete = true;
  try {
    f::validate_assignment(problem, bogus);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("box 0"), std::string::npos)
        << e.what();
  }
}

TEST(ValidateAssignment, RejectsBookkeepingMismatches) {
  const auto problem = tiny_problem();
  f::MatchResult wrong_count;
  wrong_count.assignment = {0, 1, 1};
  wrong_count.served = 2;  // actually 3 matched
  wrong_count.complete = false;
  EXPECT_THROW(f::validate_assignment(problem, wrong_count), std::logic_error);
  f::MatchResult wrong_len;
  wrong_len.assignment = {0, 1};
  wrong_len.served = 2;
  wrong_len.complete = false;
  EXPECT_THROW(f::validate_assignment(problem, wrong_len), std::logic_error);
  f::MatchResult wrong_flag;
  wrong_flag.assignment = {0, 1, -1};
  wrong_flag.served = 2;
  wrong_flag.complete = true;  // request 2 is unserved
  EXPECT_THROW(f::validate_assignment(problem, wrong_flag), std::logic_error);
}

// -------------------------------------------------------- SparseRoundState

TEST(SparseRoundState, ExpiryRetiresCacheSources) {
  // Window 3; box 2 is the static holder of stripe 0; box 1 gains a cache
  // entry at round 0, which the cache reports expired at round 4.
  s::SparseRoundState state(/*box_count=*/3, /*stripe_count=*/1);
  s::CacheIndex cache(3, 1, /*window=*/3);
  m::Round now = 0;
  const auto collect = [&](m::StripeId stripe, m::Round issue,
                           std::vector<m::BoxId>& out) {
    out.push_back(2);
    cache.collect_servers(stripe, issue, now, m::kInvalidBox, out);
  };
  const std::vector<std::uint32_t> cap = {4, 4, 4};
  std::vector<s::CacheExpiry> expired;
  const auto slot = state.add_request(/*stripe=*/0, /*issue=*/1,
                                      /*requester=*/0);
  now = 1;
  EXPECT_EQ(state.solve(expired, cap, collect), 1u);
  EXPECT_EQ(state.edge_count(), 1u);  // static holder only
  // Grant lands: box 1 becomes a second candidate via its cache entry.
  cache.grant(/*stripe=*/0, /*box=*/1, /*entry=*/0);
  state.on_grant(/*stripe=*/0, /*box=*/1, /*entry=*/0);
  now = 2;
  cache.prune(now, &expired);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(state.solve(expired, cap, collect), 1u);
  EXPECT_EQ(state.edge_count(), 2u);
  // At round 4 the entry is outside the window: the reported expiry must
  // remove exactly that source, leaving the static holder.
  now = 4;
  cache.prune(now, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(state.solve(expired, cap, collect), 1u);
  EXPECT_TRUE(expired.empty());  // consumed
  EXPECT_EQ(state.edge_count(), 1u);
  EXPECT_EQ(state.stats().expiry_events, 1u);
  EXPECT_EQ(state.assignment(slot), 2);
}

TEST(SparseRoundState, SolveServesUnmatchedSlotsInSlotOrder) {
  // Box 3 holds stripe 0 and has one upload slot, so of the requests
  // waiting for it the lowest slot wins, whichever way it came to wait: a
  // new request, one left unmatched by a full box, one whose server left.
  s::SparseRoundState state(/*box_count=*/4, /*stripe_count=*/1);
  const auto collect = [](m::StripeId, m::Round, std::vector<m::BoxId>& out) {
    out.push_back(3);
  };
  const std::vector<std::uint32_t> cap = {0, 0, 0, 1};
  std::vector<s::CacheExpiry> none;
  for (m::BoxId requester = 0; requester < 3; ++requester)
    EXPECT_EQ(state.add_request(/*stripe=*/0, /*issue=*/1, requester),
              requester);
  EXPECT_EQ(state.solve(none, cap, collect), 1u);
  EXPECT_EQ(state.assignment(0), 3);
  EXPECT_EQ(state.assignment(2), -1);
  state.remove_request(0);
  EXPECT_EQ(state.solve(none, cap, collect), 1u);
  EXPECT_EQ(state.assignment(1), 3);
  EXPECT_EQ(state.assignment(2), -1);
  // Slot 0 comes back; box 3 stays with slot 1, which it keeps.
  EXPECT_EQ(state.add_request(/*stripe=*/0, /*issue=*/2, /*requester=*/0), 0u);
  EXPECT_EQ(state.solve(none, cap, collect), 1u);
  EXPECT_EQ(state.assignment(0), -1);
  EXPECT_EQ(state.stats().kept_connections, 1u);
  EXPECT_EQ(state.stats().new_connections, 2u);
  // Box 3 fails and comes back: all three wait, and slot 0 wins.
  const std::vector<m::StripeId> stored = {0};
  state.on_box_offline(3, stored, {});
  EXPECT_EQ(state.solve(none, cap, collect), 0u);
  state.on_box_online(3, stored);
  EXPECT_EQ(state.solve(none, cap, collect), 1u);
  EXPECT_EQ(state.assignment(0), 3);
  EXPECT_EQ(state.assignment(1), -1);
  EXPECT_EQ(state.assignment(2), -1);
}

TEST(SparseRoundState, SlotsABoxLeavesAreServedAgain) {
  // Box 1 caches stripe 0 (one slot), box 2 holds it (two slots). Both
  // requests take a box; when box 1's entry expires, the request it served
  // moves to box 2's spare slot in the next solve.
  s::SparseRoundState state(/*box_count=*/4, /*stripe_count=*/1);
  s::CacheIndex cache(4, 1, /*window=*/3);
  m::Round now = 0;
  const auto collect = [&](m::StripeId stripe, m::Round issue,
                           std::vector<m::BoxId>& out) {
    out.push_back(2);
    cache.collect_servers(stripe, issue, now, m::kInvalidBox, out);
  };
  const std::vector<std::uint32_t> cap = {0, 1, 2, 0};
  std::vector<s::CacheExpiry> expired;
  cache.grant(/*stripe=*/0, /*box=*/1, /*entry=*/0);
  const auto first = state.add_request(/*stripe=*/0, /*issue=*/1, 0);
  const auto second = state.add_request(/*stripe=*/0, /*issue=*/1, 3);
  now = 1;
  EXPECT_EQ(state.solve(expired, cap, collect), 2u);
  EXPECT_EQ(state.assignment(first), 1);
  EXPECT_EQ(state.assignment(second), 2);
  now = 4;
  cache.prune(now, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(state.solve(expired, cap, collect), 2u);
  EXPECT_EQ(state.assignment(first), 2);
  EXPECT_EQ(state.assignment(second), 2);
  EXPECT_EQ(state.stats().kept_connections, 1u);
  EXPECT_EQ(state.stats().new_connections, 3u);
}

TEST(SparseRoundState, GrantWalksRowsOnlyWhenOneIsIssuedAfterItsEntry) {
  // Stripe 0 has rows issued at rounds 1 and 3, stripe 1 none. A grant
  // entered at round 3 or later patches no row: it returns before its walk
  // and records no span. One entered at round 2 patches the row issued at 3.
  s::SparseRoundState state(/*box_count=*/4, /*stripe_count=*/2);
  const auto collect = [](m::StripeId, m::Round, std::vector<m::BoxId>& out) {
    out.push_back(3);
  };
  const std::vector<std::uint32_t> cap = {4, 4, 4, 4};
  std::vector<s::CacheExpiry> no_expiries;
  (void)state.add_request(/*stripe=*/0, /*issue=*/1, /*requester=*/0);
  (void)state.add_request(/*stripe=*/0, /*issue=*/3, /*requester=*/1);
  EXPECT_EQ(state.solve(no_expiries, cap, collect), 2u);
  ASSERT_EQ(state.edge_count(), 2u);
  const auto grant_spans = [](const std::vector<p2pvod::obs::TraceEvent>& e) {
    return std::count_if(e.begin(), e.end(), [](const auto& event) {
      return event.name == "sim/sparse_grant_patch";
    });
  };

  p2pvod::obs::TraceSession::start();
  state.on_grant(/*stripe=*/0, /*box=*/2, /*entry=*/3);
  state.on_grant(/*stripe=*/0, /*box=*/2, /*entry=*/7);
  state.on_grant(/*stripe=*/1, /*box=*/2, /*entry=*/0);
  EXPECT_EQ(grant_spans(p2pvod::obs::TraceSession::stop()), 0);
  EXPECT_EQ(state.stats().row_patches, 0u);
  EXPECT_EQ(state.edge_count(), 2u);

  p2pvod::obs::TraceSession::start();
  state.on_grant(/*stripe=*/0, /*box=*/2, /*entry=*/2);
  EXPECT_EQ(grant_spans(p2pvod::obs::TraceSession::stop()), 1);
  EXPECT_EQ(state.stats().row_patches, 1u);
  EXPECT_EQ(state.edge_count(), 3u);
  EXPECT_THROW(state.on_grant(/*stripe=*/2, 2, 0), std::out_of_range);
}

TEST(SparseRoundState, RowsOfOneStripeAndIssueShareOneCollection) {
  // Three requests of stripe 0 issued at round 1 and one issued at round 2,
  // added out of issue order: two classes, two collections, two stored
  // rows. Each request's candidates are its class row minus its requester
  // (box 1 holds two sources of the class, and requests it too).
  s::SparseRoundState state(/*box_count=*/6, /*stripe_count=*/1);
  std::vector<std::pair<m::StripeId, m::Round>> calls;
  const auto collect = [&](m::StripeId stripe, m::Round issue,
                           std::vector<m::BoxId>& out) {
    calls.emplace_back(stripe, issue);
    for (const m::BoxId box : {4u, 1u, 3u, 1u}) out.push_back(box);
  };
  const std::vector<std::uint32_t> cap = {0, 1, 1, 1, 1, 0};
  std::vector<s::CacheExpiry> none;
  const auto a = state.add_request(/*stripe=*/0, /*issue=*/1, /*requester=*/1);
  const auto b = state.add_request(0, 1, /*requester=*/5);
  const auto later = state.add_request(0, 2, /*requester=*/3);
  const auto c = state.add_request(0, 1, /*requester=*/3);
  EXPECT_EQ(state.solve(none, cap, collect), 3u);
  EXPECT_EQ(calls, (std::vector<std::pair<m::StripeId, m::Round>>{{0, 1},
                                                                  {0, 2}}));
  const auto row = [&](std::uint32_t slot) { return state.row(slot); };
  EXPECT_EQ(row(a), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(row(b), (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(row(c), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(row(later), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(state.stats().rows_built, 2u);  // one per class
  EXPECT_EQ(state.edge_count(), 9u);        // 2 + 3 + 2 + 2 candidates
  // Box 1's two sources are both in each class row: one expiry leaves it,
  // one source patch per class.
  std::vector<s::CacheExpiry> expired = {{0, 1, 0}};
  EXPECT_EQ(state.solve(expired, cap, collect), 3u);
  EXPECT_EQ(row(b), (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(state.stats().row_patches, 2u);
  expired = {{0, 1, 0}};
  (void)state.solve(expired, cap, collect);
  EXPECT_EQ(row(a), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(row(b), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(row(c), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(row(later), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(state.stats().row_patches, 4u);
  EXPECT_EQ(state.edge_count(), 6u);
  EXPECT_EQ(calls.size(), 2u);  // no class was collected again
  // A request joining a built class reads its row as it stands; the class
  // and its row go with its last request.
  const auto d = state.add_request(0, 1, /*requester=*/2);
  (void)state.solve(none, cap, collect);
  EXPECT_EQ(calls.size(), 2u);
  EXPECT_EQ(row(d), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(state.edge_count(), 8u);
  for (const auto slot : {a, b, c, d}) state.remove_request(slot);
  EXPECT_EQ(state.edge_count(), 1u);  // `later` alone
  EXPECT_EQ(state.live_rows(), 1u);
  (void)state.add_request(0, 1, /*requester=*/0);
  (void)state.solve(none, cap, collect);
  EXPECT_EQ(calls.size(), 3u);  // a new class for (0, 1)
  EXPECT_EQ(state.stats().rows_built, 3u);
}

TEST(SparseRoundState, RequesterSourcingItsOwnClassIsSkipped) {
  // Stripe 0, issued at round 5: requests a, b and c from boxes 1, 2 and 3,
  // whose class row is {1, 4}: box 1 caches the stripe from an earlier
  // entry, so a's own requester is a source of its class. Stripe 1: request
  // d from box 0, whose row is {4}. Box 1 has three slots, box 4 one.
  s::SparseRoundState state(/*box_count=*/5, /*stripe_count=*/2);
  const auto collect = [](m::StripeId stripe, m::Round,
                          std::vector<m::BoxId>& out) {
    if (stripe == 0) out.push_back(1);
    out.push_back(4);
  };
  const std::vector<std::uint32_t> cap = {0, 3, 0, 0, 1};
  std::vector<s::CacheExpiry> none;
  const auto a = state.add_request(/*stripe=*/0, /*issue=*/5, /*requester=*/1);
  const auto b = state.add_request(0, 5, /*requester=*/2);
  const auto c = state.add_request(0, 5, /*requester=*/3);
  const auto d = state.add_request(/*stripe=*/1, 5, /*requester=*/0);
  f::ConnectionProblem dense(5);
  dense.set_capacities(cap);
  dense.add_request({4});
  dense.add_request({1, 4});
  dense.add_request({1, 4});
  dense.add_request({4});

  // a takes box 4, the only candidate it has; d, which needs box 4 too,
  // cannot displace it: box 1 is a's own requester.
  EXPECT_EQ(state.solve(none, cap, collect), 3u);
  EXPECT_EQ(dense.solve().served, 3u);
  EXPECT_EQ(state.row(a), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(state.row(b), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(state.edge_count(), dense.edge_count());
  EXPECT_EQ(state.edge_count(), 6u);  // 2 × 3 members − a's own box, + 1
  EXPECT_EQ(state.assignment(a), 4);
  EXPECT_EQ(state.assignment(b), 1);
  EXPECT_EQ(state.assignment(c), 1);
  EXPECT_EQ(state.assignment(d), -1);
  // Box 1 has a spare slot, but its only request without a server, a, is
  // its own: X is {a, d}, the dense min cut's set.
  const auto expected = dense.infeasibility_witness();
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(state.hall_witness(cap), *expected);
  EXPECT_EQ(state.hall_witness(cap), (std::vector<std::uint32_t>{a, d}));

  // Box 2 caches the stripe too, from round 3: a and c gain it, b, its
  // requester, does not; its expiry takes it back from all three.
  state.on_grant(/*stripe=*/0, /*box=*/2, /*entry=*/3);
  EXPECT_EQ(state.row(a), (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(state.row(b), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(state.row(c), (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(state.edge_count(), 8u);
  std::vector<s::CacheExpiry> expired = {{0, 2, 3}};
  EXPECT_EQ(state.solve(expired, cap, collect), 3u);
  EXPECT_EQ(state.row(c), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(state.edge_count(), 6u);
  EXPECT_EQ(state.assignment(a), 4);
  // Box 1 goes offline and comes back: the same accounting in reverse.
  state.on_box_offline(1, std::span<const m::StripeId>{},
                       std::vector<m::StripeId>{0});
  EXPECT_EQ(state.edge_count(), 4u);
  EXPECT_EQ(state.row(b), (std::vector<std::uint32_t>{4}));
  state.on_box_online(1, std::vector<m::StripeId>{0});
  EXPECT_EQ(state.edge_count(), 6u);
  EXPECT_EQ(state.row(a), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(state.solve(none, cap, collect), 3u);
  EXPECT_EQ(state.assignment(a), 4);
}

TEST(SparseRoundState, HallWitnessIsTheDenseMinCut) {
  // Random rows, each request on its own stripe so the collector hands it
  // its own sources (repeats and the requester's included), over boxes of
  // capacity 0 to 3. After the solve, the witness read off the matching
  // must be the request set the dense min cut names.
  p2pvod::util::Rng rng(0x4A11);
  std::uint32_t stalled = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto boxes = static_cast<std::uint32_t>(rng.next_between(1, 12));
    const auto rows = static_cast<std::uint32_t>(rng.next_between(1, 30));
    std::vector<std::uint32_t> cap(boxes);
    for (auto& slots : cap) slots = static_cast<std::uint32_t>(rng.next_below(4));
    std::vector<std::vector<m::BoxId>> sources(rows);
    s::SparseRoundState state(boxes, rows);
    f::ConnectionProblem dense(boxes);
    dense.set_capacities(cap);
    const double density = 0.05 + 0.4 * rng.next_double();
    for (std::uint32_t r = 0; r < rows; ++r) {
      const auto requester = static_cast<m::BoxId>(rng.next_below(boxes));
      std::vector<std::uint32_t> candidates;
      for (m::BoxId box = 0; box < boxes; ++box) {
        if (!rng.next_bool(density)) continue;
        sources[r].push_back(box);
        if (rng.next_bool(0.2)) sources[r].push_back(box);
        if (box != requester) candidates.push_back(box);
      }
      std::reverse(sources[r].begin(), sources[r].end());
      dense.add_request(std::move(candidates));
      ASSERT_EQ(state.add_request(r, 0, requester), r);
    }
    const auto collect = [&](m::StripeId stripe, m::Round,
                             std::vector<m::BoxId>& out) {
      out.insert(out.end(), sources[stripe].begin(), sources[stripe].end());
    };
    std::vector<s::CacheExpiry> none;
    const std::uint32_t served = state.solve(none, cap, collect);
    ASSERT_EQ(served, dense.solve().served) << "trial " << trial;
    ASSERT_EQ(state.edge_count(), dense.edge_count()) << "trial " << trial;
    const auto expected = dense.infeasibility_witness();
    const auto witness = state.hall_witness(cap);
    if (!expected.has_value()) {
      EXPECT_TRUE(witness.empty()) << "trial " << trial;
      continue;
    }
    ++stalled;
    EXPECT_EQ(witness, *expected) << "trial " << trial;
  }
  EXPECT_GT(stalled, 150u);
}

// ------------------------------------------- churn capacity ±delta (bugfix)

TEST(Churn, CapacityTotalTracksToggleSequence) {
  // Regression for the O(n) rescan bugfix: total_capacity_slots() must equal
  // a fresh per-box sum after any sequence of offline/online toggles,
  // including repeated no-op toggles.
  const m::Catalog catalog(1, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(8, 1.5, 100.0);
  std::vector<a::Placement> placements;
  for (std::uint32_t i = 0; i < 4; ++i) placements.push_back({7, i});
  const a::Allocation allocation(8, 4, a::group_by_stripe(4, placements));
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  const auto rescan = [&sim] {
    std::uint64_t total = 0;
    for (m::BoxId b = 0; b < 8; ++b) total += sim.capacity_slots(b);
    return total;
  };
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  EXPECT_EQ(sim.capacity_slots(0), 6u);  // ⌊1.5·4⌋
  sim.set_box_online(3, false);
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  sim.set_box_online(3, false);  // repeated: must not double-subtract
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  sim.set_box_online(5, false);
  sim.set_box_online(3, true);
  sim.set_box_online(3, true);  // repeated: must not double-add
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  EXPECT_EQ(sim.capacity_slots(3), 6u);
  sim.set_box_online(5, true);
  EXPECT_EQ(sim.total_capacity_slots(), rescan());
  EXPECT_EQ(sim.total_capacity_slots(), 48u);
}

TEST(Churn, CapacityDeltaRespectsOverride) {
  const m::Catalog catalog(1, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(4, 2.0, 100.0);
  std::vector<a::Placement> placements;
  for (std::uint32_t i = 0; i < 4; ++i) placements.push_back({3, i});
  const a::Allocation allocation(4, 4, a::group_by_stripe(4, placements));
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.strict = false;
  options.capacity_override = {1, 2, 3, 4};
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  EXPECT_EQ(sim.total_capacity_slots(), 10u);
  sim.set_box_online(2, false);
  EXPECT_EQ(sim.total_capacity_slots(), 7u);
  EXPECT_EQ(sim.capacity_slots(2), 0u);
  sim.set_box_online(2, true);
  // Recovery restores the override value, not the profile's ⌊u·c⌋.
  EXPECT_EQ(sim.capacity_slots(2), 3u);
  EXPECT_EQ(sim.total_capacity_slots(), 10u);
}

// ------------------------------------- CSR runs checked against the oracle

namespace {

enum class Audience { kZipf, kAvoider, kFlashCrowd, kDistinct };

struct TwinConfig {
  std::uint32_t boxes = 48;             // n
  std::uint32_t videos = 24;            // m
  std::uint32_t chunks = 4;             // c
  m::Round duration = 12;               // T
  double upload = 2.0;                  // u
  double storage = 8.0;                 // d
  std::uint32_t replicas = 6;           // k
  Audience audience = Audience::kZipf;  // demand source
  double alpha = 0.8;                   // Zipf exponent
  double demand_prob = 0.25;            // Zipf demand chance per idle box
  double mu = 1.3;                      // growth bound of the adversaries
  m::Round rounds = 40;                 // rounds to run
  std::uint64_t seed = 0x5EED0;         // allocation, demand and churn
  double fail_prob = 0.0;               // per-box per-round crash chance
  m::Round outage = 5;                  // rounds a crashed box stays down
  s::SimulatorOptions options;          // verify forced on by run_twins
};

/// A run's demand source; the adversaries sit behind the growth limiter as
/// in Calibrator::run_trial.
struct AudienceFeed {
  std::unique_ptr<w::DemandGenerator> inner;
  std::unique_ptr<w::GrowthLimiter> limited;  ///< null: `inner` feeds alone

  explicit AudienceFeed(const TwinConfig& cfg) {
    switch (cfg.audience) {
      case Audience::kZipf:
        inner = std::make_unique<w::ZipfDemand>(
            cfg.videos, cfg.alpha, cfg.demand_prob, cfg.seed ^ 0xA0D1EBCE);
        return;
      case Audience::kAvoider:
        inner = std::make_unique<w::AvoiderAdversary>(cfg.seed ^ 0xA701D);
        break;
      case Audience::kFlashCrowd:
        inner = std::make_unique<w::FlashCrowd>(
            static_cast<m::VideoId>(cfg.seed % cfg.videos), cfg.mu);
        return;
      case Audience::kDistinct:
        inner = std::make_unique<w::DistinctVideosSweep>(cfg.seed ^ 0xD157,
                                                         /*repeat=*/true);
        break;
    }
    limited = std::make_unique<w::GrowthLimiter>(*inner, cfg.mu);
  }

  [[nodiscard]] w::DemandGenerator& feed() const {
    return limited != nullptr ? *limited : *inner;
  }
};

/// Drive one simulator on the CSR engine with verify_incremental on. Every
/// round the dense problem is rebuilt from ground truth and stands in for a
/// dense twin: the CSR rows must hold exactly its edges, the assignment
/// must be valid for it, and the served count must equal its Dinic solve.
/// Any disagreement throws out of step().
s::RunReport run_twins(TwinConfig cfg) {
  const m::Catalog catalog(cfg.videos, cfg.chunks, cfg.duration);
  const auto profile =
      m::CapacityProfile::homogeneous(cfg.boxes, cfg.upload, cfg.storage);
  p2pvod::util::Rng alloc_rng(cfg.seed);
  const a::Allocation allocation = a::PermutationAllocator().allocate(
      catalog, profile, cfg.replicas, alloc_rng);

  s::SimulatorOptions options = cfg.options;
  options.verify_incremental = true;
  s::PreloadingStrategy strategy;
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  EXPECT_TRUE(sim.sparse_active());

  const AudienceFeed audience(cfg);
  p2pvod::util::Rng churn_rng(cfg.seed ^ 0xC84);
  std::vector<m::Round> down_until(cfg.boxes, -1);
  for (m::Round round = 0; round < cfg.rounds; ++round) {
    for (m::BoxId b = 0; b < cfg.boxes; ++b) {
      if (down_until[b] >= 0) {
        if (round >= down_until[b]) {
          sim.set_box_online(b, true);
          down_until[b] = -1;
        }
      } else if (cfg.fail_prob > 0 && churn_rng.next_bool(cfg.fail_prob)) {
        sim.set_box_online(b, false);
        down_until[b] = round + cfg.outage;
      }
    }
    const auto demands = audience.feed().demands(sim);
    EXPECT_NO_THROW(sim.step(demands)) << "round " << round;
    if (sim.stalled() && options.strict) break;
  }
  const s::RunReport& report = sim.report();
  EXPECT_GT(report.rows_built, 0u);
  // The zone-aware engine collects every live row every round; the CSR
  // engine never collects more.
  EXPECT_LE(static_cast<double>(report.rows_built),
            report.active_requests.sum());
  return report;
}

/// The point of the CSR engine: once requests outlive a round, it collects
/// only dirtied rows, strictly fewer than one per live request per round.
void expect_patched(const s::RunReport& report) {
  EXPECT_LT(static_cast<double>(report.rows_built),
            report.active_requests.sum());
}

}  // namespace

TEST(SparseTwins, PlainRun) { expect_patched(run_twins({})); }

TEST(SparseTwins, UnderChurn) {
  TwinConfig cfg;
  cfg.fail_prob = 0.02;
  cfg.rounds = 50;
  const s::RunReport report = run_twins(cfg);
  EXPECT_GT(report.sessions_aborted, 0u);
  expect_patched(report);
}

TEST(SparseTwins, StrictModeStallsIdentically) {
  TwinConfig cfg;
  cfg.boxes = 24;
  cfg.videos = 8;
  cfg.upload = 0.75;
  cfg.replicas = 2;
  cfg.demand_prob = 0.9;
  cfg.rounds = 30;
  cfg.options.strict = true;
  const s::RunReport report = run_twins(cfg);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.rounds, report.first_stall + 1);  // strict: stops there
  // The Hall witness comes from the dense problem of the stalled round.
  EXPECT_GT(report.stall_witness_size, 0u);
}

TEST(SparseTwins, CapacityOverride) {
  TwinConfig cfg;
  cfg.options.capacity_override.resize(cfg.boxes);
  for (std::uint32_t b = 0; b < cfg.boxes; ++b) {
    cfg.options.capacity_override[b] = b % 3 + 1;
  }
  expect_patched(run_twins(cfg));
}

TEST(SparseTwins, RandomizedChurnProperty) {
  // Seeded property sweep: modest world, random churn + Zipf demands; every
  // round must agree with the oracle (verify_incremental inside run_twins).
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    TwinConfig cfg;
    cfg.boxes = 64;
    cfg.videos = 16;
    cfg.seed = seed;
    cfg.fail_prob = 0.03;
    cfg.outage = 4;
    cfg.demand_prob = 0.35;
    cfg.rounds = 45;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_patched(run_twins(cfg));
  }
}

TEST(SparseTwins, StrictThresholdAdversaries) {
  // The regime the paper's claim is measured on: strict trials at u = 1
  // (threshold_trials' protocol, n = 100, k = 4, T = 24) driven by the
  // adversaries of the full suite rather than a Zipf audience.
  std::uint32_t stalled = 0;
  for (const Audience audience :
       {Audience::kAvoider, Audience::kFlashCrowd, Audience::kDistinct}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      TwinConfig cfg;
      cfg.boxes = 100;
      cfg.upload = 1.0;
      cfg.storage = 4.0;
      cfg.replicas = 4;
      cfg.videos = 100;  // ⌊d·n/k⌋
      cfg.duration = 24;
      cfg.rounds = 72;
      cfg.audience = audience;
      cfg.seed = seed;
      cfg.options.strict = true;
      SCOPED_TRACE("audience " + std::to_string(static_cast<int>(audience)) +
                   " seed " + std::to_string(seed));
      const s::RunReport report = run_twins(cfg);
      EXPECT_GT(report.chunks_served, 0u);
      if (!report.success) ++stalled;
    }
  }
  // Both outcomes occur at the threshold, so both paths get checked.
  EXPECT_GT(stalled, 0u);
  EXPECT_LT(stalled, 6u);
}

TEST(SparseTwins, AdversariesAcrossSeeds) {
  // The flash crowd shares one video's stripes among every viewer, so its
  // rounds expire many entries of one stripe at once and rebuild many rows
  // of one (stripe, issue); the avoider spreads its viewers over many
  // videos. Both, strict and not, with and without churn, over many seeds:
  // every round checks each batched expiry and grouped rebuild against
  // ground truth, row by row.
  std::uint32_t runs = 0;
  std::uint64_t expiries = 0;
  for (const Audience audience : {Audience::kFlashCrowd, Audience::kAvoider}) {
    for (const bool strict : {true, false}) {
      for (const double fail_prob : {0.0, 0.03}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
          TwinConfig cfg;
          cfg.boxes = 40;
          cfg.videos = 40;
          cfg.storage = 4.0;
          cfg.replicas = 4;
          cfg.upload = 1.0;
          cfg.duration = 8;
          cfg.rounds = 40;
          cfg.audience = audience;
          cfg.seed = seed;
          cfg.fail_prob = fail_prob;
          cfg.outage = 3;
          cfg.options.strict = strict;
          SCOPED_TRACE("audience " +
                       std::to_string(static_cast<int>(audience)) +
                       " strict " + std::to_string(strict) + " churn " +
                       std::to_string(fail_prob) + " seed " +
                       std::to_string(seed));
          expiries += run_twins(cfg).expiry_events;
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 64u);
  EXPECT_GT(expiries, 1000u);
}

TEST(SparseTwins, StallWitnessIsTheDenseMinCut) {
  // verify_incremental checks the first stall's witness, read off the CSR
  // matching, against the dense min cut of the same round, request for
  // request. Five stall-prone configurations over many seeds: strict flash
  // crowds and avoiders at u <= 1, a tight Zipf audience, Zipf under churn
  // (offline boxes; not strict, so later rounds keep running), and Zipf
  // over capacity overrides with zero-capacity boxes.
  std::uint32_t stalls = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    for (int kind = 0; kind < 5; ++kind) {
      TwinConfig cfg;
      cfg.boxes = 24;
      cfg.videos = 24;  // ⌊d·n/k⌋
      cfg.storage = 4.0;
      cfg.replicas = 4;
      cfg.duration = 8;
      cfg.rounds = 16;
      cfg.seed = seed * 8 + static_cast<std::uint64_t>(kind);
      cfg.upload = 1.0;
      cfg.options.strict = true;
      switch (kind) {
        case 0:
          cfg.audience = Audience::kFlashCrowd;
          cfg.upload = 0.75;
          break;
        case 1:
          cfg.audience = Audience::kAvoider;
          cfg.upload = 0.75;
          break;
        case 2:
          cfg.upload = 0.75;
          cfg.alpha = 1.2;
          cfg.demand_prob = 0.9;
          break;
        case 3:
          cfg.upload = 0.75;
          cfg.demand_prob = 0.6;
          cfg.fail_prob = 0.05;
          cfg.outage = 3;
          cfg.options.strict = false;
          break;
        default:
          cfg.demand_prob = 0.6;
          cfg.options.capacity_override.resize(cfg.boxes);
          for (std::uint32_t b = 0; b < cfg.boxes; ++b)
            cfg.options.capacity_override[b] = b % 4 == 0 ? 0 : 1 + b % 3;
          break;
      }
      SCOPED_TRACE("kind " + std::to_string(kind) + " seed " +
                   std::to_string(seed));
      const s::RunReport report = run_twins(cfg);
      if (report.first_stall < 0) continue;
      ++stalls;
      EXPECT_GT(report.stall_witness_size, 0u);
    }
  }
  EXPECT_GE(stalls, 1000u);
}

namespace {

/// Records every plan of the strategy it wraps.
class RecordingStrategy final : public s::RequestStrategy {
 public:
  explicit RecordingStrategy(s::RequestStrategy& inner) : inner_(inner) {}

  void plan(m::BoxId b, m::VideoId v, std::uint64_t ticket, m::Round now,
            s::Simulator& sim, std::vector<s::PlannedRequest>& out) override {
    const auto before = static_cast<std::ptrdiff_t>(out.size());
    inner_.plan(b, v, ticket, now, sim, out);
    plans.insert(plans.end(), out.begin() + before, out.end());
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<s::PlannedRequest> plans;

 private:
  s::RequestStrategy& inner_;
};

}  // namespace

TEST(SparseTwins, RelayRequestingAStripeItCaches) {
  // §4 relays: poor boxes 0-3 all relay through box 4 and start video 0 in
  // rounds 0-3. Box 4 downloads the relayed stripes once per viewer, three
  // rounds after the demand, and caches each as it downloads it: from the
  // second viewer on it requests stripes it holds an in-window cache entry
  // of, so it is a source of its own swarm class. verify_incremental checks
  // every request's candidates (its class row minus its requester), the
  // edge total and the assignment against ground truth every round.
  const m::Catalog catalog(2, 8, 20);
  const auto profile =
      m::CapacityProfile::two_class(12, 4, 0.5, 2.0, 4.0, 8.0);
  auto plan = *h::Compensator::plan(profile, 1.5, 8, 1.0);
  for (m::BoxId b = 0; b < 4; ++b) plan.relay[b] = 4;
  p2pvod::util::Rng rng(0x5E1F);
  const a::Allocation allocation =
      a::PermutationAllocator().allocate(catalog, profile, 3, rng);
  h::RelayStrategy relay(plan);
  RecordingStrategy strategy(relay);
  s::SimulatorOptions options;
  options.capacity_override = plan.capacity_slots();
  options.strict = false;
  options.verify_incremental = true;
  s::Simulator sim(catalog, profile, allocation, strategy, options);
  ASSERT_TRUE(sim.sparse_active());
  constexpr m::Round kRounds = 30;
  for (m::Round round = 0; round < kRounds; ++round) {
    std::vector<s::Demand> demands;
    if (round < 4) demands.push_back({static_cast<m::BoxId>(round), 0});
    ASSERT_NO_THROW(sim.step(demands)) << "round " << round;
  }
  EXPECT_EQ(sim.report().demands_admitted, 4u);
  EXPECT_EQ(sim.report().sessions_completed, 4u);

  // The case occurred: a request whose requester had cached its stripe
  // from an entry before its issue and still inside the window.
  std::uint32_t own_source = 0;
  for (const s::PlannedRequest& request : strategy.plans) {
    if (request.requester == m::kInvalidBox || request.issue >= kRounds)
      continue;
    const bool cached = std::any_of(
        strategy.plans.begin(), strategy.plans.end(),
        [&](const s::PlannedRequest& earlier) {
          return earlier.stripe == request.stripe &&
                 std::any_of(earlier.grants.begin(), earlier.grants.end(),
                             [&](const s::CacheGrant& grant) {
                               return grant.box == request.requester &&
                                      grant.entry < request.issue &&
                                      grant.entry >= request.issue -
                                                         catalog.duration();
                             });
        });
    if (cached) ++own_source;
  }
  EXPECT_GT(own_source, 0u);
}

// ------------------------------------------------------------ engine choice

TEST(SparseEnv, ExplicitSparseWithTopologyIsConfigError) {
  // The CSR engine is cost-blind: asking for it together with a topology is
  // a config error.
  const m::Catalog catalog(1, 4, 12);
  const auto profile = m::CapacityProfile::homogeneous(4, 2.0, 100.0);
  std::vector<a::Placement> placements;
  for (std::uint32_t i = 0; i < 4; ++i) placements.push_back({3, i});
  const a::Allocation allocation(4, 4, a::group_by_stripe(4, placements));
  const auto topology = p2pvod::net::Topology::uniform(4, 2);
  s::PreloadingStrategy strategy;
  s::SimulatorOptions options;
  options.sparse = true;
  options.topology = &topology;
  EXPECT_THROW(s::Simulator(catalog, profile, allocation, strategy, options),
               std::invalid_argument);
  // The topology alone picks the zone-aware engine; no topology, the CSR one.
  options.sparse = false;
  const s::Simulator zone_aware(catalog, profile, allocation, strategy,
                                options);
  EXPECT_FALSE(zone_aware.sparse_active());
  const s::Simulator csr(catalog, profile, allocation, strategy, {});
  EXPECT_TRUE(csr.sparse_active());
}
