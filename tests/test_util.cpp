// Unit tests for src/util: RNG determinism and distributions, log-space math,
// statistics, table rendering, thread pool, CLI parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logmath.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace u = p2pvod::util;

// ----------------------------------------------------------------- rng

TEST(Rng, SameSeedSameStream) {
  u::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  u::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitMixIsBijectiveOnSamples) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 2000; ++x)
    outputs.insert(u::splitmix64_mix(x));
  EXPECT_EQ(outputs.size(), 2000u);
}

TEST(Rng, ChildSeedsIndependentOfParentState) {
  u::Rng parent(7);
  (void)parent();
  (void)parent();
  u::Rng fresh(7);
  EXPECT_EQ(parent.child(3).seed(), fresh.child(3).seed());
}

TEST(Rng, ChildSeedsDifferByIndex) {
  EXPECT_NE(u::child_seed(1, 0), u::child_seed(1, 1));
  EXPECT_NE(u::child_seed(1, 0), u::child_seed(2, 0));
}

TEST(Rng, NextBelowStaysInRange) {
  u::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
}

TEST(Rng, NextBelowOneIsZero) {
  u::Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  u::Rng rng(11);
  std::array<int, 5> counts{};
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(5)];
  for (const int count : counts) {
    EXPECT_NEAR(count, kSamples / 5, kSamples / 50);
  }
}

TEST(Rng, NextBetweenInclusive) {
  u::Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.next_between(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo |= (x == -2);
    saw_hi |= (x == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  u::Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  u::Rng rng(1);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
}

TEST(Rng, BernoulliFrequency) {
  u::Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  u::Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  u::Rng rng(23);
  const auto perm = rng.permutation(257);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, ShuffleKeepsMultiset) {
  u::Rng rng(29);
  std::vector<int> v{1, 1, 2, 3, 5, 8, 13};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, JumpChangesStream) {
  u::Xoshiro256StarStar a(99), b(99);
  b.jump();
  EXPECT_NE(a(), b());
}

// ----------------------------------------------------------------- logmath

TEST(LogMath, FactorialSmallValues) {
  EXPECT_NEAR(u::log_factorial(0), 0.0, 1e-12);
  EXPECT_NEAR(u::log_factorial(1), 0.0, 1e-12);
  EXPECT_NEAR(u::log_factorial(5), std::log(120.0), 1e-9);
}

TEST(LogMath, FactorialNegativeThrows) {
  EXPECT_THROW((void)u::log_factorial(-1), std::invalid_argument);
}

TEST(LogMath, BinomialMatchesPascal) {
  EXPECT_NEAR(u::log_binomial(10, 3), std::log(120.0), 1e-9);
  EXPECT_NEAR(u::log_binomial(52, 5), std::log(2598960.0), 1e-6);
}

TEST(LogMath, BinomialZeroCases) {
  EXPECT_EQ(u::log_binomial(5, 6), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(u::log_binomial(5, -1), -std::numeric_limits<double>::infinity());
  EXPECT_NEAR(u::log_binomial(5, 0), 0.0, 1e-12);
  EXPECT_NEAR(u::log_binomial(5, 5), 0.0, 1e-12);
}

TEST(LogMath, CompositionsStarsAndBars) {
  // #multisets of size 5 using exactly 3 distinct symbols: C(4,2) = 6.
  EXPECT_NEAR(u::log_compositions(5, 3), std::log(6.0), 1e-9);
  EXPECT_EQ(u::log_compositions(2, 3),
            -std::numeric_limits<double>::infinity());
}

TEST(LogMath, LogSumExpBasics) {
  const std::vector<double> values{std::log(1.0), std::log(2.0),
                                   std::log(3.0)};
  EXPECT_NEAR(u::log_sum_exp(values), std::log(6.0), 1e-12);
}

TEST(LogMath, LogSumExpHandlesLargeMagnitudes) {
  const std::vector<double> values{1000.0, 1000.0};
  EXPECT_NEAR(u::log_sum_exp(values), 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogMath, LogSumExpEmptyIsNegInf) {
  EXPECT_EQ(u::log_sum_exp({}), -std::numeric_limits<double>::infinity());
}

TEST(LogMath, LogAddExp) {
  EXPECT_NEAR(u::log_add_exp(std::log(2.0), std::log(3.0)), std::log(5.0),
              1e-12);
  EXPECT_NEAR(u::log_add_exp(-std::numeric_limits<double>::infinity(), 1.5),
              1.5, 1e-12);
}

TEST(LogMath, ExpClamped) {
  EXPECT_EQ(u::exp_clamped(800.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(u::exp_clamped(-800.0), 0.0);
  EXPECT_NEAR(u::exp_clamped(1.0), std::exp(1.0), 1e-12);
}

TEST(LogMath, XlogyZeroConvention) {
  EXPECT_EQ(u::xlogy(0.0, 0.0), 0.0);
  EXPECT_NEAR(u::xlogy(2.0, std::exp(1.0)), 2.0, 1e-12);
}

TEST(LogMath, AccumulatorMatchesDirectSum) {
  u::LogSumAccumulator acc;
  double direct = 0.0;
  for (int i = 1; i <= 50; ++i) {
    const double p = 1.0 / (i * i);
    acc.add_log(std::log(p));
    direct += p;
  }
  EXPECT_NEAR(acc.total(), direct, 1e-9);
  EXPECT_EQ(acc.count(), 50u);
}

TEST(LogMath, AccumulatorIgnoresNegInfTerms) {
  u::LogSumAccumulator acc;
  acc.add_log(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(acc.log_total(), -std::numeric_limits<double>::infinity());
  acc.add_log(0.0);  // + 1.0
  EXPECT_NEAR(acc.total(), 1.0, 1e-12);
}

// ----------------------------------------------------------------- stats

TEST(Stats, OnlineMeanVariance) {
  u::OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, MergeEqualsConcatenation) {
  u::OnlineStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 0.5);
    all.add(i * 0.5);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Stats, SingleSampleHasZeroVariance) {
  u::OnlineStats s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(Stats, SumSurvivesCatastrophicCancellation) {
  // A mean*count reconstruction drops the unit addends entirely once the
  // huge value dominates the Welford mean; the compensated running total
  // keeps every bit of them.
  u::OnlineStats s;
  s.add(1e16);
  for (int i = 0; i < 1000; ++i) s.add(1.0);
  s.add(-1e16);
  EXPECT_DOUBLE_EQ(s.sum(), 1000.0);
  EXPECT_EQ(s.count(), 1002u);
}

TEST(Stats, SumOfPlainSamplesIsExact) {
  u::OnlineStats s;
  double expected = 0.0;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
    expected += x;
  }
  EXPECT_DOUBLE_EQ(s.sum(), expected);
}

TEST(Stats, MergePreservesCompensatedSum) {
  u::OnlineStats a, b;
  a.add(1e16);
  for (int i = 0; i < 500; ++i) a.add(1.0);
  for (int i = 0; i < 500; ++i) b.add(1.0);
  b.add(-1e16);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.sum(), 1000.0);
  EXPECT_EQ(a.count(), 1002u);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_NEAR(u::quantile({1, 2, 3, 4}, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(u::quantile({1, 2, 3, 4}, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(u::quantile({1, 2, 3, 4}, 1.0), 4.0, 1e-12);
}

TEST(Stats, QuantileEmptyThrows) {
  EXPECT_THROW((void)u::quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, WilsonIntervalContainsEstimate) {
  const auto p = u::wilson_interval(7, 10);
  EXPECT_NEAR(p.estimate, 0.7, 1e-12);
  EXPECT_LT(p.lower, 0.7);
  EXPECT_GT(p.upper, 0.7);
  EXPECT_GE(p.lower, 0.0);
  EXPECT_LE(p.upper, 1.0);
}

TEST(Stats, WilsonIntervalExtremes) {
  const auto all = u::wilson_interval(10, 10);
  EXPECT_EQ(all.estimate, 1.0);
  EXPECT_LT(all.lower, 1.0);  // still uncertain with 10 trials
  const auto none = u::wilson_interval(0, 10);
  EXPECT_EQ(none.estimate, 0.0);
  EXPECT_GT(none.upper, 0.0);
}

TEST(Stats, WilsonZeroTrials) {
  const auto p = u::wilson_interval(0, 0);
  EXPECT_EQ(p.estimate, 0.0);
}

TEST(Stats, HistogramPercentiles) {
  u::Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_EQ(h.percentile(0.5), 50);
  EXPECT_EQ(h.percentile(0.99), 99);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 1e-12);
}

TEST(Stats, HistogramWeights) {
  u::Histogram h;
  h.add(3, 5);
  h.add(10, 1);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.percentile(0.5), 3);
  EXPECT_EQ(h.percentile(1.0), 10);
}

TEST(Stats, HistogramEmptyThrows) {
  u::Histogram h;
  EXPECT_THROW((void)h.min(), std::logic_error);
  EXPECT_THROW((void)h.percentile(0.5), std::logic_error);
}

// ----------------------------------------------------------------- table

TEST(Table, AlignedOutputHasHeaderRule) {
  u::Table t("demo");
  t.set_header({"a", "bb"});
  t.begin_row().cell("x").cell(std::int64_t{42});
  const std::string text = t.to_string();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  u::Table t;
  t.set_header({"name"});
  t.begin_row().cell("a,b");
  t.begin_row().cell("say \"hi\"");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, BoolAndDoubleFormatting) {
  u::Table t;
  t.begin_row().cell(true).cell(false).cell(3.14159, 3);
  const std::string text = t.to_string();
  EXPECT_NE(text.find("yes"), std::string::npos);
  EXPECT_NE(text.find("no"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
}

TEST(Table, FormatDoubleSpecials) {
  EXPECT_EQ(u::Table::format_double(std::nan("")), "nan");
  EXPECT_EQ(u::Table::format_double(INFINITY), "inf");
  EXPECT_EQ(u::Table::format_double(-INFINITY), "-inf");
}

TEST(Table, ColumnsIsMaxWidth) {
  u::Table t;
  t.set_header({"a"});
  t.begin_row().cell("1").cell("2").cell("3");
  EXPECT_EQ(t.columns(), 3u);
  EXPECT_EQ(t.rows(), 1u);
}

// ----------------------------------------------------------------- threads

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<int> hits(100, 0);
  u::parallel_for(0, 100, [&](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  bool called = false;
  u::parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
  const auto out = u::parallel_map<std::size_t>(
      50, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

// --- parallel_for grain-size properties: every grain choice must cover the
// --- range exactly once, whatever its relation to range and worker count.

namespace {

/// Runs parallel_for over [begin, end) with the given pool/grain and asserts
/// exactly-once coverage.
void expect_covers_once(std::size_t begin, std::size_t end,
                        u::ThreadPool* pool, std::size_t grain) {
  std::vector<std::atomic<int>> hits(end);
  u::parallel_for(
      begin, end, [&hits](std::size_t i) { hits[i].fetch_add(1); }, pool,
      grain);
  for (std::size_t i = 0; i < end; ++i) {
    ASSERT_EQ(hits[i].load(), i < begin ? 0 : 1)
        << "i=" << i << " grain=" << grain;
  }
}

}  // namespace

TEST(ParallelForGrain, EmptyRangeNeverCallsBody) {
  u::ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                  std::size_t{100}}) {
    bool called = false;
    u::parallel_for(
        7, 7, [&](std::size_t) { called = true; }, &pool, grain);
    EXPECT_FALSE(called) << grain;
    // Inverted range behaves as empty, not as a crash or wraparound.
    u::parallel_for(
        9, 3, [&](std::size_t) { called = true; }, &pool, grain);
    EXPECT_FALSE(called) << grain;
  }
}

TEST(ParallelForGrain, RangeSmallerThanWorkerCount) {
  u::ThreadPool pool(8);
  for (const std::size_t grain :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    expect_covers_once(0, 3, &pool, grain);
  }
}

TEST(ParallelForGrain, GrainLargerThanRangeDegradesToSerial) {
  u::ThreadPool pool(4);
  expect_covers_once(0, 5, &pool, 100);
  expect_covers_once(2, 6, &pool, 4);  // exactly one chunk
}

TEST(ParallelForGrain, AssortedGrainsCoverAssortedRanges) {
  u::ThreadPool pool(3);
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{64},
        std::size_t{1000}}) {
    for (const std::size_t grain :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{64},
          std::size_t{5000}}) {
      expect_covers_once(0, count, &pool, grain);
    }
  }
}

TEST(ParallelForGrain, NonZeroBeginRespectsOffsets) {
  u::ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}}) {
    expect_covers_once(13, 77, &pool, grain);
  }
}

TEST(ParallelForGrain, ResultsIndependentOfGrainAndThreads) {
  // The same deterministic body must produce identical outputs whatever the
  // chunking: grain only changes scheduling, never the index->value map.
  const std::function<std::uint64_t(std::size_t)> body =
      [](std::size_t i) { return u::splitmix64_mix(i); };
  u::ThreadPool serial(1);
  u::ThreadPool wide(4);
  const auto reference = u::parallel_map<std::uint64_t>(500, body, &serial);
  for (const std::size_t grain :
       {std::size_t{1}, std::size_t{9}, std::size_t{128}, std::size_t{1000}}) {
    EXPECT_EQ(u::parallel_map<std::uint64_t>(500, body, &wide, grain),
              reference)
        << grain;
  }
}

// ----------------------------------------------------------------- cli

TEST(Cli, ParsesEqualsAndSpaceForms) {
  // Note: a bare flag followed by a non-flag token would consume it as the
  // flag's value (--u 1.5 style), so bare flags go last or use --flag=true.
  const char* argv[] = {"prog", "pos1", "--n=100", "--u", "1.5", "--flag"};
  u::ArgParser args(6, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_NEAR(args.get_double("u", 0.0), 1.5, 1e-12);
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  u::ArgParser args(1, argv);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get_string("missing", "x"), "x");
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, DeclaredBareFlagsDoNotConsumePositionals) {
  const char* argv[] = {"prog", "--all", "run-me", "--depth", "3", "too"};
  u::ArgParser args(6, argv, {"all"});
  EXPECT_TRUE(args.get_bool("all", false));
  EXPECT_EQ(args.get_int("depth", 0), 3);
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"run-me", "too"}));
  // Without the declaration the old greedy behavior stands.
  u::ArgParser greedy(6, argv);
  EXPECT_EQ(greedy.get_string("all", ""), "run-me");
  EXPECT_EQ(greedy.positional(), (std::vector<std::string>{"too"}));
}

TEST(Cli, BoolParsingVariants) {
  const char* argv[] = {"prog", "--a=yes", "--b=0", "--c=on", "--d=false"};
  u::ArgParser args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Cli, BenchScaleDefaultsToOne) {
  // No P2PVOD_SCALE in the test environment.
  EXPECT_GT(u::bench_scale(), 0.0);
}

TEST(Cli, MalformedNumericOptionsThrowInvalidArgument) {
  const char* argv[] = {"prog", "--depth=abc", "--ratio=x", "--seed=y"};
  u::ArgParser args(4, argv);
  EXPECT_THROW((void)args.get_int("depth", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("ratio", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_seed("seed", 0), std::invalid_argument);
}

TEST(Cli, OptionNamesListsCommandLineFlags) {
  const char* argv[] = {"prog", "--b=1", "--a", "pos"};
  u::ArgParser args(4, argv, {"a"});
  EXPECT_EQ(args.option_names(), (std::vector<std::string>{"a", "b"}));
}

TEST(Cli, ScaledCountSurvivesAbsurdScales) {
  // llround on a double beyond long long is unspecified; the clamp must win.
  setenv("P2PVOD_SCALE", "1e18", 1);
  EXPECT_EQ(u::scaled_count(48, 2), 0xffffffffu);
  unsetenv("P2PVOD_SCALE");
}

// ----------------------------------------------------------------- json

TEST(Json, ParseRoundTripsAllValueKinds) {
  const std::string text =
      R"({"null":null,"t":true,"f":false,"num":-12.5,"int":42,)"
      R"("str":"a\"b\\c\n","arr":[1,[2],{}],"obj":{"nested":"x"}})";
  const auto doc = u::json::parse(text);
  EXPECT_TRUE(doc.at("null").is_null());
  EXPECT_TRUE(doc.at("t").as_bool());
  EXPECT_FALSE(doc.at("f").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("num").as_number(), -12.5);
  EXPECT_DOUBLE_EQ(doc.at("int").as_number(), 42.0);
  EXPECT_EQ(doc.at("str").as_string(), "a\"b\\c\n");
  EXPECT_EQ(doc.at("arr").as_array().size(), 3u);
  EXPECT_EQ(doc.at("obj").at("nested").as_string(), "x");
  // Compact dump re-parses to the same structure.
  const auto again = u::json::parse(doc.dump());
  EXPECT_EQ(again.at("str").as_string(), "a\"b\\c\n");
  EXPECT_DOUBLE_EQ(again.at("num").as_number(), -12.5);
}

TEST(Json, NumberFormattingRoundTrips) {
  // Integral doubles print without a fraction; others with full precision.
  EXPECT_EQ(u::json::Value(3.0).dump(), "3");
  EXPECT_EQ(u::json::Value(-7).dump(), "-7");
  const double pi = 3.141592653589793;
  EXPECT_DOUBLE_EQ(u::json::parse(u::json::Value(pi).dump()).as_number(), pi);
  const double tiny = 1.2345678901234567e-100;
  EXPECT_DOUBLE_EQ(u::json::parse(u::json::Value(tiny).dump()).as_number(),
                   tiny);
}

TEST(Json, ScientificNotationAndUnicodeEscapes) {
  EXPECT_DOUBLE_EQ(u::json::parse("1.5e3").as_number(), 1500.0);
  EXPECT_DOUBLE_EQ(u::json::parse("-2E-2").as_number(), -0.02);
  // \u escapes decode to UTF-8 (two- and three-byte forms), and raw UTF-8
  // passes through untouched.
  EXPECT_EQ(u::json::parse("\"A\\u00e9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(u::json::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");
  EXPECT_EQ(u::json::parse("\"\xc3\xa9\"").as_string(), "\xc3\xa9");
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW((void)u::json::parse(""), std::runtime_error);
  EXPECT_THROW((void)u::json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)u::json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)u::json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)u::json::parse("tru"), std::runtime_error);
  EXPECT_THROW((void)u::json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)u::json::parse("1 2"), std::runtime_error);  // trailing
  EXPECT_THROW((void)u::json::parse("{}").at("missing"), std::runtime_error);
  EXPECT_THROW((void)u::json::parse("[]").as_object(), std::runtime_error);
}

namespace {
/// The message parse throws for `text`, or "" when it parses.
std::string json_error(const std::string& text) {
  try {
    (void)u::json::parse(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return {};
}
}  // namespace

TEST(Json, DeepNestingFailsWithTheByteOffset) {
  // 50,000 open brackets used to recurse until the stack ran out.
  const std::string deep(50000, '[');
  const std::string what = json_error(deep);
  EXPECT_NE(what.find("nesting deeper than 256 levels"), std::string::npos)
      << what;
  EXPECT_NE(what.find("at byte 256"), std::string::npos) << what;
  // Objects count too, mixed with arrays.
  std::string mixed;
  for (int i = 0; i < 200; ++i) mixed += "{\"a\":[";
  EXPECT_NE(json_error(mixed).find("nesting deeper"), std::string::npos);
}

TEST(Json, DocumentAtTheDepthLimitParses) {
  const auto nest = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "7" +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const auto doc = u::json::parse(nest(u::json::kMaxDepth));
  const u::json::Value* inner = &doc;
  for (int level = 0; level < u::json::kMaxDepth; ++level) {
    ASSERT_TRUE(inner->is_array()) << "level " << level;
    ASSERT_EQ(inner->as_array().size(), 1u);
    inner = &inner->as_array()[0];
  }
  EXPECT_DOUBLE_EQ(inner->as_number(), 7.0);
  EXPECT_NE(json_error(nest(u::json::kMaxDepth + 1)).find("nesting deeper"),
            std::string::npos);
}

TEST(Json, LoneSurrogateEscapesAreRejected) {
  for (const char* text :
       {R"("\ud800")", R"("\udbff x")", R"("\udc00")", R"("\ud800\u0041")",
        R"("\ud800\ud800")", R"("\ud800\n")", R"("\ud83d")"}) {
    EXPECT_NE(json_error(text).find("lone surrogate escape"),
              std::string::npos)
        << text;
  }
  // A pair is one character outside the BMP: U+1F600 as four UTF-8 bytes.
  EXPECT_EQ(u::json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_EQ(u::json::parse(R"("\udbff\udfff")").as_string(),
            "\xf4\x8f\xbf\xbf");
}

TEST(Json, EveryCommittedJsonFileParses) {
  // Baselines, benchmark digests, presets: every JSON file of the source
  // tree outside build trees and dot directories.
  const std::filesystem::path root(P2PVOD_SOURCE_DIR);
  std::vector<std::filesystem::path> files;
  for (auto it = std::filesystem::recursive_directory_iterator(root);
       it != std::filesystem::recursive_directory_iterator(); ++it) {
    const std::string name = it->path().filename().string();
    if (it->is_directory() &&
        (name.starts_with(".") || name.starts_with("build") ||
         name.starts_with("cmake-build"))) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && it->path().extension() == ".json")
      files.push_back(it->path());
  }
  EXPECT_GE(files.size(), 30u);
  for (const auto& file : files) {
    EXPECT_NO_THROW((void)u::json::parse_file(file.string())) << file;
  }
}

TEST(Json, ObjectKeysKeepInsertionOrder) {
  u::json::Value doc{u::json::Value::Object{}};
  doc.set("z", 1);
  doc.set("a", 2);
  EXPECT_EQ(doc.dump(), R"({"z":1,"a":2})");
  EXPECT_EQ(doc.find("missing"), nullptr);
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("a")->as_number(), 2.0);
}
