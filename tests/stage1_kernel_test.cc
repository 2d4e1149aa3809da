// Differential coverage for the stage-1 hot-path kernels: the prefix-sum
// adjacency scan and the LineIndex-compacted window scan must be
// *bit-identical* to the retained naive reference scans — same aggregation
// sets in the same order, with bitwise-equal observed error levels — on both
// axes, for all five functions, across every Fig. 7 error level. Also unit
// coverage for AxisView (the zero-copy transpose) and LineIndex itself.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/adjacency_strategy.h"
#include "core/collective_detector.h"
#include "core/extension.h"
#include "core/line_index.h"
#include "core/pruning.h"
#include "core/window_strategy.h"
#include "datagen/corpus.h"
#include "datagen/file_generator.h"
#include "gtest/gtest.h"
#include "numfmt/axis_view.h"
#include "tests/test_support.h"

namespace aggrecol::core {
namespace {

using aggrecol::testing::Figure5Grid;
using aggrecol::testing::MakeNumeric;

// Scientific notation is not a recognized number shape (ParseShape treats the
// exponent marker as text), so denormal cells must be spelled out as plain
// decimals. 400 fraction digits leave the rounding error at ~1e-401, far
// below the denormal spacing of ~5e-324, so the literal round-trips to the
// exact double it was printed from (via ParseNumber's long-fraction heap
// fallback).
std::string DecimalLiteral(double value) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer), "%.400f", value);
  return std::string(buffer);
}

// The Fig. 7 sweep, as in bench/fig7_error_levels.
const std::vector<double>& Fig7Levels() {
  static const std::vector<double> levels = {0.0,  1e-6, 1e-4, 1e-3,
                                             0.01, 0.03, 0.05, 0.1};
  return levels;
}

// Asserts the two scans produced the same aggregations in the same order,
// with bitwise-identical error fields (operator== ignores the error, so it is
// checked separately; exact double equality is intentional — the kernel
// contract is bit-identity, not approximate agreement).
void ExpectIdenticalScan(const std::vector<Aggregation>& kernel,
                         const std::vector<Aggregation>& naive,
                         const std::string& context) {
  ASSERT_EQ(kernel.size(), naive.size()) << context;
  for (size_t i = 0; i < kernel.size(); ++i) {
    EXPECT_EQ(kernel[i], naive[i]) << context << " at " << i << ": "
                                   << ToString(kernel[i]) << " vs "
                                   << ToString(naive[i]);
    EXPECT_EQ(kernel[i].error, naive[i].error)
        << context << " error mismatch at " << i << ": " << ToString(kernel[i]);
  }
}

// Runs both implementations of both strategies over every line of both axis
// views of `grid`, across all five functions and all Fig. 7 error levels,
// with the given active mask (or all-active when empty).
void ExpectKernelMatchesNaive(const numfmt::NumericGrid& grid,
                              const std::string& name,
                              std::vector<bool> active = {}) {
  const numfmt::AxisView views[] = {numfmt::AxisView::Rows(grid),
                                    numfmt::AxisView::Columns(grid)};
  for (const auto& view : views) {
    std::vector<bool> mask = active;
    if (static_cast<int>(mask.size()) != view.columns()) {
      mask.assign(view.columns(), true);
    }
    for (double level : Fig7Levels()) {
      for (AggregationFunction function : kAllFunctions) {
        const bool commutative = TraitsOf(function).commutative;
        for (int line = 0; line < view.rows(); ++line) {
          const std::string context =
              name + " axis=" + (view.transposed() ? "col" : "row") +
              " fn=" + ToString(function) + " level=" + std::to_string(level) +
              " line=" + std::to_string(line);
          if (commutative) {
            ExpectIdenticalScan(
                DetectAdjacentCommutative(view, mask, line, function, level),
                DetectAdjacentCommutativeNaive(view, mask, line, function, level),
                context);
          } else {
            ExpectIdenticalScan(
                DetectWindowPairwise(view, mask, line, function, level, 10),
                DetectWindowPairwiseNaive(view, mask, line, function, level, 10),
                context);
          }
        }
      }
    }
  }
}

TEST(Stage1Kernel, MatchesNaiveOnFigure5) {
  ExpectKernelMatchesNaive(
      numfmt::NumericGrid::FromGrid(Figure5Grid(), numfmt::NumberFormat::kCommaDot),
      "figure5");
}

TEST(Stage1Kernel, MatchesNaiveWithInactiveColumns) {
  const auto grid =
      numfmt::NumericGrid::FromGrid(Figure5Grid(), numfmt::NumberFormat::kCommaDot);
  std::vector<bool> active(static_cast<size_t>(grid.columns()), true);
  for (size_t j = 0; j < active.size(); j += 3) active[j] = false;
  // Row axis only: the mask is in row-view coordinates.
  const numfmt::AxisView view = numfmt::AxisView::Rows(grid);
  for (double level : Fig7Levels()) {
    for (AggregationFunction function : kAllFunctions) {
      for (int line = 0; line < view.rows(); ++line) {
        if (TraitsOf(function).commutative) {
          ExpectIdenticalScan(
              DetectAdjacentCommutative(view, active, line, function, level),
              DetectAdjacentCommutativeNaive(view, active, line, function, level),
              "masked");
        } else {
          ExpectIdenticalScan(
              DetectWindowPairwise(view, active, line, function, level, 10),
              DetectWindowPairwiseNaive(view, active, line, function, level, 10),
              "masked");
        }
      }
    }
  }
}

TEST(Stage1Kernel, MatchesNaiveOnGeneratedCorpus) {
  const auto corpus = datagen::GenerateSmallCorpus(200, 0xA66);
  ASSERT_EQ(corpus.size(), 200u);
  for (const auto& file : corpus) {
    ExpectKernelMatchesNaive(
        numfmt::NumericGrid::FromGrid(file.grid, file.format), file.name);
  }
}

TEST(Stage1Kernel, PrecisionFallbackMatchesNaiveUnderCancellation) {
  // 2^53 + 1 - 2^53 destroys the plain prefix sums (the +1 is entirely lost
  // at 2^53 magnitude), so the prefix screen cannot decide and must fall back
  // to the compensated walk, which recovers the range sum exactly. The
  // detection then agrees bitwise with the naive Kahan reference.
  std::vector<std::string> row = {"998", "9007199254740992", "1",
                                  "-9007199254740992"};
  for (int i = 0; i < 997; ++i) row.push_back("1");
  const auto grid = MakeNumeric({row});
  const std::vector<bool> active(static_cast<size_t>(grid.columns()), true);

  const auto kernel = DetectAdjacentCommutative(grid, active, 0,
                                                AggregationFunction::kSum, 0.0);
  const auto naive = DetectAdjacentCommutativeNaive(
      grid, active, 0, AggregationFunction::kSum, 0.0);
  ExpectIdenticalScan(kernel, naive, "cancellation");

  // And the aggregation over the full 1000-column range is actually found.
  std::vector<int> range(1000);
  for (int i = 0; i < 1000; ++i) range[i] = i + 1;
  EXPECT_TRUE(aggrecol::testing::Contains(
      kernel, aggrecol::testing::Agg(0, 0, range, AggregationFunction::kSum)));
}

// ---------------------------------------------------------------------------
// Long lines. On a line longer than kAdjacencyLeafSizes usable cells the
// adjacency kernel bisects the range sizes of every search and skips whole
// blocks whose prefix-sum bounds cannot hold an accept. Every test here
// compares it with the naive walk: same candidates, same order, bit-equal
// error levels, for sum and average in both directions.
// ---------------------------------------------------------------------------

// `cents` / 100 as a plain decimal literal, e.g. -1205 -> "-12.05".
std::string Cents(long long cents) {
  const long long magnitude = cents < 0 ? -cents : cents;
  std::string fraction = std::to_string(magnitude % 100);
  if (fraction.size() < 2) fraction = "0" + fraction;
  return (cents < 0 ? "-" : "") + std::to_string(magnitude / 100) + "." +
         fraction;
}

// A line of `n` cells holding random cents in [1, 99999] (in +-[1, 99999]
// when `mixed_sign`) and three planted aggregates: an average at n/3 over
// the n/4 cells to its right, a sum at n-1 over the n/2 cells to its left,
// and a sum at 0 over every other cell of the line.
std::vector<std::string> PlantedLine(int n, bool mixed_sign, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<long long> cents(static_cast<size_t>(n));
  for (auto& value : cents) {
    value = 1 + static_cast<long long>(rng() % 99999);
    if (mixed_sign && rng() % 2 == 0) value = -value;
  }
  auto sum = [&cents](int begin, int end) {
    long long total = 0;
    for (int p = begin; p < end; ++p) total += cents[static_cast<size_t>(p)];
    return total;
  };
  const int average_at = n / 3;
  const int average_length = n / 4;
  const int average_end = average_at + 1 + average_length;
  const long long remainder = sum(average_at + 1, average_end) % average_length;
  cents[static_cast<size_t>(average_end - 1)] -= remainder;  // divisible now
  cents[static_cast<size_t>(average_at)] =
      sum(average_at + 1, average_end) / average_length;
  cents[static_cast<size_t>(n - 1)] = sum(n - 1 - n / 2, n - 1);
  cents[0] = sum(1, n);
  std::vector<std::string> line;
  for (long long value : cents) line.push_back(Cents(value));
  return line;
}

std::vector<int> Iota(int begin, int end) {
  std::vector<int> range;
  for (int p = begin; p < end; ++p) range.push_back(p);
  return range;
}

// Runs both adjacency scans, sum and average, over every line of `view` at
// each of `levels`, with the given mask (all-active when empty), and returns
// how many candidates the kernel found.
size_t ExpectAdjacencyMatchesNaive(
    const numfmt::AxisView& view, const std::string& name,
    std::vector<bool> active = {},
    const std::vector<double>& levels = Fig7Levels()) {
  if (static_cast<int>(active.size()) != view.columns()) {
    active.assign(static_cast<size_t>(view.columns()), true);
  }
  size_t found = 0;
  for (double level : levels) {
    for (AggregationFunction function :
         {AggregationFunction::kSum, AggregationFunction::kAverage}) {
      for (int line = 0; line < view.rows(); ++line) {
        const auto kernel =
            DetectAdjacentCommutative(view, active, line, function, level);
        ExpectIdenticalScan(
            kernel,
            DetectAdjacentCommutativeNaive(view, active, line, function, level),
            name + " fn=" + ToString(function) +
                " level=" + std::to_string(level) +
                " line=" + std::to_string(line));
        found += kernel.size();
      }
    }
  }
  return found;
}

TEST(LongLine, PlantedPositiveLinesMatchNaive) {
  // All-positive cells: the prefix sums are monotone, so block bounds are the
  // prefix entries at the block ends.
  for (int n : {200, 701}) {
    const auto grid = MakeNumeric({PlantedLine(n, false, 11u + n),
                                   PlantedLine(n, false, 12u + n)});
    EXPECT_GT(ExpectAdjacencyMatchesNaive(grid, "positive n=" + std::to_string(n)),
              0u);
    const std::vector<bool> active(static_cast<size_t>(n), true);
    const auto sums =
        DetectAdjacentCommutative(grid, active, 0, AggregationFunction::kSum, 0.0);
    EXPECT_TRUE(aggrecol::testing::Contains(
        sums, aggrecol::testing::Agg(0, 0, Iota(1, n), AggregationFunction::kSum)));
    EXPECT_TRUE(aggrecol::testing::Contains(
        sums, aggrecol::testing::Agg(0, n - 1, Iota(n - 1 - n / 2, n - 1),
                                     AggregationFunction::kSum)));
    const auto averages = DetectAdjacentCommutative(
        grid, active, 0, AggregationFunction::kAverage, 0.0);
    EXPECT_TRUE(aggrecol::testing::Contains(
        averages,
        aggrecol::testing::Agg(0, n / 3, Iota(n / 3 + 1, n / 3 + 1 + n / 4),
                               AggregationFunction::kAverage)));
  }
}

TEST(LongLine, PlantedMixedSignLinesMatchNaive) {
  // Mixed signs: the prefix sums wander, so the block bounds come from the
  // min/max table rather than the block ends.
  for (int n : {150, 600}) {
    const auto grid = MakeNumeric({PlantedLine(n, true, 21u + n),
                                   PlantedLine(n, true, 22u + n),
                                   PlantedLine(n, true, 23u + n)});
    EXPECT_GT(ExpectAdjacencyMatchesNaive(grid, "mixed n=" + std::to_string(n)),
              0u);
  }
}

TEST(LongLine, AllZeroAndDenormalLinesMatchNaive) {
  // All-zero: every range sums to exactly zero and the drift bound sits on
  // its n * DBL_MIN floor. Denormal: the proportional drift term underflows
  // and every planted sum is exact (denormal addition does not round).
  const std::vector<std::string> zeros(120, "0");
  EXPECT_GT(ExpectAdjacencyMatchesNaive(MakeNumeric({zeros}), "zero"), 0u);

  std::mt19937 rng(0xDE40);
  std::vector<long long> units(90);
  for (auto& unit : units) unit = 1 + static_cast<long long>(rng() % 40);
  units[0] = 0;
  for (size_t p = 1; p < units.size(); ++p) units[0] += units[p];
  std::vector<std::string> denormals;
  for (long long unit : units) {
    denormals.push_back(DecimalLiteral(
        static_cast<double>(unit) * std::numeric_limits<double>::denorm_min()));
  }
  const auto grid = MakeNumeric({denormals});
  EXPECT_GT(ExpectAdjacencyMatchesNaive(grid, "denormal"), 0u);
  const auto sums = DetectAdjacentCommutative(
      grid, std::vector<bool>(units.size(), true), 0, AggregationFunction::kSum,
      0.0);
  EXPECT_TRUE(aggrecol::testing::Contains(
      sums, aggrecol::testing::Agg(0, 0, Iota(1, static_cast<int>(units.size())),
                                   AggregationFunction::kSum)));
}

TEST(LongLine, PrecisionFallbackOnLongLineBothDirections) {
  // The 2^53 + 1 - 2^53 cancellation on 300-cell lines, each with one
  // aggregate whose only match is the whole rest of its line. The plain
  // prefix sums lose the +1 (row 0 loses 2 more to ties-to-even), so the
  // fast sum of the matching range misses the target by 1 or 2 and sits at
  // the edge of its block: only the drift term of the block bound (the
  // prefix magnitude mass is ~2^54) keeps that block from being rejected,
  // and the exact replay then decides. Row 1 keeps the big cells outside the
  // last block's prefix entries. (The lines stay short because the replay
  // runs for nearly every candidate.)
  constexpr int n = 300;
  std::vector<std::string> front = {std::to_string(n - 3), "9007199254740992",
                                    "1", "-9007199254740992"};
  while (static_cast<int>(front.size()) < n) front.push_back("1");
  std::vector<std::string> back(40, "1");
  for (const char* cell : {"9007199254740992", "1", "-9007199254740992"}) {
    back.push_back(cell);
  }
  while (static_cast<int>(back.size()) < n - 1) back.push_back("1");
  back.push_back(std::to_string(n - 3));
  const auto grid = MakeNumeric({front, back});
  EXPECT_GT(ExpectAdjacencyMatchesNaive(grid, "cancellation", {}, {0.0, 0.05}),
            0u);
  const std::vector<bool> active(n, true);
  EXPECT_TRUE(aggrecol::testing::Contains(
      DetectAdjacentCommutative(grid, active, 0, AggregationFunction::kSum, 0.0),
      aggrecol::testing::Agg(0, 0, Iota(1, n), AggregationFunction::kSum)));
  EXPECT_TRUE(aggrecol::testing::Contains(
      DetectAdjacentCommutative(grid, active, 1, AggregationFunction::kSum, 0.0),
      aggrecol::testing::Agg(1, n - 1, Iota(0, n - 1), AggregationFunction::kSum)));
}

TEST(LongLine, InactiveAndTextCellsMidLineMatchNaive) {
  // Masked columns and text cells drop out of the compaction, so compact
  // block bounds must map back to the right view columns.
  constexpr int n = 320;
  auto line = PlantedLine(n, false, 31);
  auto mixed = PlantedLine(n, true, 32);
  for (int col = 150; col < n; col += 37) {
    line[static_cast<size_t>(col)] = "n/a";
    mixed[static_cast<size_t>(col)] = "";
  }
  std::vector<bool> active(n, true);
  for (int col = 100; col < 140; ++col) active[static_cast<size_t>(col)] = false;
  for (int col = 5; col < n; col += 7) active[static_cast<size_t>(col)] = false;
  EXPECT_GT(ExpectAdjacencyMatchesNaive(MakeNumeric({line, mixed}), "masked",
                                        active),
            0u);
}

TEST(LongLine, LeafBoundaryLengthsMatchNaive) {
  // Lines of exactly leaf, leaf +- 1 and 2 * leaf +- 1 usable cells, padded
  // with text cells so the raw line is longer than its compaction.
  constexpr int kLeaf = kAdjacencyLeafSizes;
  for (int usable : {kLeaf - 1, kLeaf, kLeaf + 1, 2 * kLeaf - 1, 2 * kLeaf,
                     2 * kLeaf + 1}) {
    for (bool mixed_sign : {false, true}) {
      std::vector<std::string> line;
      for (const auto& cell : PlantedLine(usable, mixed_sign, 40u + usable)) {
        line.push_back(cell);
        if (line.size() % 5 == 0) line.push_back("text");
      }
      const auto grid = MakeNumeric({line});
      LineIndex index;
      index.Build(grid, std::vector<bool>(line.size(), true), 0);
      ASSERT_EQ(index.size(), usable);
      EXPECT_GT(ExpectAdjacencyMatchesNaive(
                    grid, "usable=" + std::to_string(usable) +
                              (mixed_sign ? " mixed" : " positive")),
                0u);
    }
  }
}

TEST(LongLine, OverflowingPrefixFallsBackToLinearWalk) {
  // Cells near DBL_MAX overflow the running prefix to infinity, so the line
  // builds no prefix table and every search walks its sizes one by one.
  std::vector<std::string> line;
  for (int p = 0; p < 80; ++p) {
    // 1.5e308 spelled out: 309 integer digits.
    line.push_back(p % 3 == 0 ? "15" + std::string(307, '0') : std::to_string(p));
  }
  const auto grid = MakeNumeric({line});
  LineIndex index;
  index.Build(grid, std::vector<bool>(line.size(), true), 0);
  ASSERT_EQ(index.size(), 80);
  EXPECT_FALSE(index.BuildPrefixBounds());
  ExpectAdjacencyMatchesNaive(grid, "overflow");
}

TEST(LongLine, TallFileColumnAxisMatchesNaive) {
  // The column axis of the 2.5k-row tall file of the `mixed` pipeline
  // workload: 17 lines of about 2.5k cells.
  datagen::GeneratorProfile profile;
  profile.p_no_aggregation = 0.0;
  profile.p_tiny_file = 0.0;
  profile.p_second_table = 0.0;
  profile.p_big_file = 1.0;
  profile.big_file_rows = 2500;
  const auto file = datagen::GenerateFile(profile, 4242, "tall.csv");
  const auto grid = numfmt::NumericGrid::FromGrid(file.grid, file.format);
  const numfmt::AxisView columns = numfmt::AxisView::Columns(grid);
  ASSERT_GT(columns.columns(), 2500);
  EXPECT_GT(ExpectAdjacencyMatchesNaive(columns, "tall", {}, {0.0, 0.01}), 0u);
}

TEST(AxisView, RowViewMatchesGrid) {
  const auto grid = MakeNumeric({{"1", "x", "3"}, {"", "5", "abc"}});
  const numfmt::AxisView view = numfmt::AxisView::Rows(grid);
  EXPECT_FALSE(view.transposed());
  ASSERT_EQ(view.rows(), grid.rows());
  ASSERT_EQ(view.columns(), grid.columns());
  for (int i = 0; i < grid.rows(); ++i) {
    for (int j = 0; j < grid.columns(); ++j) {
      EXPECT_EQ(view.kind(i, j), grid.kind(i, j));
      EXPECT_EQ(view.value(i, j), grid.value(i, j));
    }
  }
  EXPECT_EQ(view.format(), grid.format());
}

TEST(AxisView, ColumnViewMatchesTransposedCopy) {
  const auto grid = MakeNumeric({{"1", "x", "3"}, {"", "5", "abc"}});
  const numfmt::NumericGrid transposed = grid.Transposed();
  const numfmt::AxisView view = numfmt::AxisView::Columns(grid);
  EXPECT_TRUE(view.transposed());
  ASSERT_EQ(view.rows(), transposed.rows());
  ASSERT_EQ(view.columns(), transposed.columns());
  for (int i = 0; i < transposed.rows(); ++i) {
    for (int j = 0; j < transposed.columns(); ++j) {
      EXPECT_EQ(view.kind(i, j), transposed.kind(i, j));
      EXPECT_EQ(view.value(i, j), transposed.value(i, j));
      EXPECT_EQ(view.IsNumeric(i, j), transposed.IsNumeric(i, j));
      EXPECT_EQ(view.IsRangeUsable(i, j), transposed.IsRangeUsable(i, j));
    }
    EXPECT_EQ(view.NumericCountInRow(i), transposed.NumericCountInRow(i));
  }
  for (int j = 0; j < transposed.columns(); ++j) {
    EXPECT_EQ(view.NumericCountInColumn(j), transposed.NumericCountInColumn(j));
  }
}

TEST(AxisView, ImplicitConversionIsRowView) {
  const auto grid = MakeNumeric({{"1", "2"}, {"3", "4"}});
  const numfmt::AxisView view = grid;  // implicit
  EXPECT_FALSE(view.transposed());
  EXPECT_EQ(view.value(1, 0), 3.0);
}

TEST(LineIndex, CompactsUsableCellsWithPrefixSums) {
  // "x" is a zero marker (usable, value 0), "abc" is text (skipped), and
  // column 4 is masked out.
  const auto grid = MakeNumeric({{"10", "x", "abc", "20", "30", "40"}});
  std::vector<bool> active(6, true);
  active[4] = false;
  LineIndex index;
  index.Build(grid, active, 0);
  ASSERT_EQ(index.size(), 4);
  EXPECT_EQ(index.col(0), 0);
  EXPECT_EQ(index.col(1), 1);
  EXPECT_EQ(index.col(2), 3);
  EXPECT_EQ(index.col(3), 5);
  EXPECT_TRUE(index.is_numeric(0));
  EXPECT_FALSE(index.is_numeric(1));  // zero marker: usable, not an aggregate
  EXPECT_DOUBLE_EQ(index.value(3), 40.0);
  EXPECT_DOUBLE_EQ(index.PrefixSum(0, 4), 70.0);
  EXPECT_DOUBLE_EQ(index.PrefixSum(1, 3), 20.0);
  EXPECT_DOUBLE_EQ(index.PrefixSum(2, 2), 0.0);
}

TEST(LineIndex, CompensatedSumHonorsWalkOrder) {
  const auto grid = MakeNumeric({{"1.5", "2.25", "3.125", "4"}});
  const std::vector<bool> active(4, true);
  LineIndex index;
  index.Build(grid, active, 0);
  KahanAccumulator forward;
  for (double v : {1.5, 2.25, 3.125, 4.0}) forward.Add(v);
  EXPECT_EQ(index.CompensatedSum(0, 4, false), forward.Total());
  KahanAccumulator backward;
  for (double v : {4.0, 3.125, 2.25, 1.5}) backward.Add(v);
  EXPECT_EQ(index.CompensatedSum(0, 4, true), backward.Total());
}

TEST(LineIndex, SpanBoundsMatchBruteForce) {
  std::mt19937 rng(0x5BA7);
  std::vector<std::string> row;
  for (int j = 0; j < 37; ++j) {
    row.push_back(std::to_string(static_cast<int>(rng() % 2000) - 1000) + "." +
                  std::to_string(rng() % 100));
  }
  const auto grid = numfmt::NumericGrid::FromGrid(
      csv::Grid(std::vector<std::vector<std::string>>{row}),
      numfmt::NumberFormat::kCommaDot);
  const std::vector<bool> active(row.size(), true);
  LineIndex index;
  index.Build(grid, active, 0);
  ASSERT_EQ(index.size(), 37);
  index.BuildSpanBounds();
  for (int begin = 0; begin < index.size(); ++begin) {
    for (int end = begin + 1; end <= index.size(); ++end) {
      double lo = index.value(begin);
      double hi = index.value(begin);
      for (int pos = begin + 1; pos < end; ++pos) {
        lo = std::min(lo, index.value(pos));
        hi = std::max(hi, index.value(pos));
      }
      EXPECT_EQ(index.SpanMin(begin, end), lo) << begin << ", " << end;
      EXPECT_EQ(index.SpanMax(begin, end), hi) << begin << ", " << end;
    }
  }
}

TEST(LineIndex, SpanBoundsSurviveBufferReuseAcrossLines) {
  // BuildSpanBounds reuses its table buffers; a shorter rebuilt line must not
  // read stale entries from a previous, longer line.
  const auto wide = MakeNumeric({{"9", "8", "7", "6", "5", "4", "3", "2", "1"}});
  const auto narrow = MakeNumeric({{"2", "1", "3"}});
  LineIndex index;
  index.Build(wide, std::vector<bool>(9, true), 0);
  index.BuildSpanBounds();
  EXPECT_EQ(index.SpanMin(0, 9), 1.0);
  index.Build(narrow, std::vector<bool>(3, true), 0);
  index.BuildSpanBounds();
  EXPECT_EQ(index.SpanMin(0, 3), 1.0);
  EXPECT_EQ(index.SpanMax(0, 3), 3.0);
  EXPECT_EQ(index.SpanMax(0, 2), 2.0);
}

TEST(LineIndex, PrefixBoundsMatchBruteForceAcrossReusedBuffers) {
  // Long, short, then long again: the table buffers are reused, and the
  // stride changes with the line length.
  std::mt19937 rng(0x9F1C);
  LineIndex index;
  for (int length : {45, 6, 33}) {
    std::vector<std::string> row;
    for (int j = 0; j < length; ++j) {
      row.push_back(std::to_string(static_cast<int>(rng() % 2000) - 1000) + "." +
                    std::to_string(rng() % 100));
    }
    index.Build(MakeNumeric({row}), std::vector<bool>(row.size(), true), 0);
    ASSERT_EQ(index.size(), length);
    ASSERT_TRUE(index.BuildPrefixBounds());
    for (int begin = 0; begin <= index.size(); ++begin) {
      double lo = index.Prefix(begin);
      double hi = index.Prefix(begin);
      for (int end = begin + 1; end <= index.size() + 1; ++end) {
        lo = std::min(lo, index.Prefix(end - 1));
        hi = std::max(hi, index.Prefix(end - 1));
        EXPECT_EQ(index.PrefixMin(begin, end), lo)
            << length << ": " << begin << ", " << end;
        EXPECT_EQ(index.PrefixMax(begin, end), hi)
            << length << ": " << begin << ", " << end;
      }
    }
  }
}

TEST(LineIndex, PosOfColumnInvertsCompaction) {
  const auto grid = MakeNumeric({{"10", "abc", "20", "x", "30"}});
  std::vector<bool> active(5, true);
  active[4] = false;
  LineIndex index;
  index.Build(grid, active, 0);
  ASSERT_EQ(index.size(), 3);
  EXPECT_EQ(index.PosOfColumn(0), 0);
  EXPECT_EQ(index.PosOfColumn(1), -1);  // text: not range-usable
  EXPECT_EQ(index.PosOfColumn(2), 1);
  EXPECT_EQ(index.PosOfColumn(3), 2);   // zero marker: usable
  EXPECT_EQ(index.PosOfColumn(4), -1);  // masked out
  for (int pos = 0; pos < index.size(); ++pos) {
    EXPECT_EQ(index.PosOfColumn(index.col(pos)), pos);
  }
}

TEST(LineIndex, SumErrorBoundNeverZeroOnAllZeroLine) {
  // Satellite regression: a line whose usable cells are all exactly zero used
  // to publish a drift bound of exactly 0, making the screen treat the prefix
  // sum as infinitely precise. The floor keeps the bound positive.
  const auto grid = MakeNumeric({{"0", "0", "0", "0", "0"}});
  const std::vector<bool> active(5, true);
  LineIndex index;
  index.Build(grid, active, 0);
  ASSERT_EQ(index.size(), 5);
  for (int end = 1; end <= index.size(); ++end) {
    EXPECT_GT(index.SumErrorBound(end), 0.0) << "end=" << end;
  }
}

TEST(LineIndex, SumErrorBoundNeverZeroOnDenormalLine) {
  // All-denormal magnitudes underflow the proportional gamma_n term itself;
  // the n * DBL_MIN floor must take over.
  const std::vector<std::string> row = {DecimalLiteral(5e-324),
                                        DecimalLiteral(-5e-324),
                                        DecimalLiteral(1e-320), "0"};
  const auto grid = MakeNumeric({row});
  const std::vector<bool> active(4, true);
  LineIndex index;
  index.Build(grid, active, 0);
  ASSERT_EQ(index.size(), 4);
  ASSERT_EQ(index.value(0), 5e-324);  // the literal round-trips exactly
  ASSERT_EQ(index.value(1), -5e-324);
  for (int end = 1; end <= index.size(); ++end) {
    EXPECT_GT(index.SumErrorBound(end), 0.0) << "end=" << end;
    EXPECT_GE(index.SumErrorBound(end),
              static_cast<double>(end) * std::numeric_limits<double>::min());
  }
}

TEST(Stage1Kernel, ZeroSumCancellationStillDetected) {
  // Sum over a cancelling range: aggregate 0 = 5.5 + (-5.5). With the drift
  // floor the screen keeps the candidate; both scans must agree bitwise and
  // actually find it.
  const auto grid = MakeNumeric({{"0", "5.5", "-5.5"}});
  const std::vector<bool> active(3, true);
  const auto kernel = DetectAdjacentCommutative(grid, active, 0,
                                                AggregationFunction::kSum, 0.0);
  const auto naive = DetectAdjacentCommutativeNaive(
      grid, active, 0, AggregationFunction::kSum, 0.0);
  ExpectIdenticalScan(kernel, naive, "zero-sum");
  EXPECT_TRUE(aggrecol::testing::Contains(
      kernel, aggrecol::testing::Agg(0, 0, {1, 2}, AggregationFunction::kSum)));
}

TEST(LineIndex, SumErrorBoundCoversPrefixDrift) {
  // The bound must dominate the observed |prefix subtraction - compensated
  // sum| discrepancy, including under heavy cancellation.
  std::vector<std::string> row = {"9007199254740992", "1", "-9007199254740992",
                                  "0.1", "0.2", "12345.6789"};
  const auto grid = MakeNumeric({row});
  const std::vector<bool> active(row.size(), true);
  LineIndex index;
  index.Build(grid, active, 0);
  for (int begin = 0; begin < index.size(); ++begin) {
    for (int end = begin + 1; end <= index.size(); ++end) {
      const double drift = std::fabs(index.PrefixSum(begin, end) -
                                     index.CompensatedSum(begin, end, false));
      EXPECT_LE(drift, index.SumErrorBound(end))
          << "span [" << begin << ", " << end << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Divisor boundary cases for the window kernels. The whole-window batch
// screen must hand windows whose divisor span straddles zero back to the
// per-pair screens, and those must skip exactly the pairs the reference
// skips (ApplyPairwise is undefined for c == 0 / b == 0).
// ---------------------------------------------------------------------------

TEST(WindowBoundary, ZeroDivisorsMatchNaive) {
  // Planted hits (1.03125 = 1056/1024, 0.03125 = (1056-1024)/1024) sit next
  // to exact-zero cells, so zero divisors appear inside live windows on both
  // axes; the "all zeros" row additionally makes every divisor zero.
  const auto grid = MakeNumeric({
      {"1.03125", "1056", "1024", "0", "7", "0", "3"},
      {"2", "8", "0", "4", "0", "-8", "16"},
      {"0", "0", "0", "0", "0", "0", "0"},
      {"0.03125", "1024", "1056", "0", "5", "0", "-5"},
  });
  ExpectKernelMatchesNaive(grid, "zero-divisor");
}

TEST(WindowBoundary, DenormalDivisorsMatchNaive) {
  // +/-denormal divisors: nonzero, so the reference divides by them, and the
  // screens must not misclassify them as the undefined c == 0 case; their
  // magnitudes also underflow naive threshold products.
  const std::string pos = DecimalLiteral(5e-324);
  const std::string neg = DecimalLiteral(-5e-324);
  const auto grid = MakeNumeric({
      {"1", pos, pos, "-1", pos, neg, DecimalLiteral(1e-320), "0", "2"},
      {"2", DecimalLiteral(1e-320), DecimalLiteral(5e-321), "0", neg, pos, "-1",
       "3", "4"},
  });
  const numfmt::AxisView view = numfmt::AxisView::Rows(grid);
  // Guard the premise: the spelled-out denormals must classify as numeric and
  // parse to nonzero denormal doubles, otherwise this test silently
  // degenerates.
  ASSERT_TRUE(view.IsNumeric(0, 1));
  ASSERT_TRUE(view.IsNumeric(0, 5));
  ASSERT_EQ(view.value(0, 1), 5e-324);
  ASSERT_EQ(view.value(0, 5), -5e-324);
  ExpectKernelMatchesNaive(grid, "denormal-divisor");
}

TEST(WindowBoundary, SignFlipMidWindowMatchesNaive) {
  // Divisor values flip sign inside every window (-4 = 2 / -0.5 is a planted
  // division hit; -1.5 = (1 - -2) / -2 a planted relative change),
  // so the batch screen's divisor span straddles zero and must fall through
  // to the per-pair screens rather than reject or accept wholesale.
  const auto grid = MakeNumeric({
      {"-4", "2", "-0.5", "1", "-8", "0.25", "3", "-1.5"},
      {"-1.5", "-2", "1", "4", "-0.25", "6", "-3", "0.5"},
  });
  ExpectKernelMatchesNaive(grid, "sign-flip");
}

TEST(WindowBoundary, MirroredDifferenceKeepsFirstOnly) {
  // 5 = 8 - 3 and 3 = 8 - 5 are mirrored differences over the same cells;
  // the scan suppresses the mirror and keeps the first-emitted candidate.
  // This pins the emitted order as a regression guard: the screened kernel
  // must preserve the keep-first suppression exactly.
  const auto grid = MakeNumeric({{"5", "8", "3"}});
  const std::vector<bool> active(3, true);
  for (double level : Fig7Levels()) {
    ExpectIdenticalScan(
        DetectWindowPairwise(grid, active, 0, AggregationFunction::kDifference,
                             level, 10),
        DetectWindowPairwiseNaive(grid, active, 0,
                                  AggregationFunction::kDifference, level, 10),
        "mirror level=" + std::to_string(level));
  }
  const auto kernel = DetectWindowPairwise(
      grid, active, 0, AggregationFunction::kDifference, 0.0, 10);
  ASSERT_EQ(kernel.size(), 1u);
  EXPECT_EQ(kernel[0].aggregate, 0);
  EXPECT_EQ(kernel[0].range, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Stage-3 extension: the indexed screened path vs the retained naive walk.
// ---------------------------------------------------------------------------

TEST(ExtensionScreen, IndexedPathMatchesNaiveOnPlantedGrid) {
  // Pattern: sum over range {0, 2, 3} -> aggregate column 4. One plan over a
  // 5-column grid satisfies the cost model (3 + 16 >= 15), so the screened
  // implementation takes the indexed path.
  //  - row 0 seeds the pattern (non-contiguous: column 1 is numeric, so the
  //    compact positions of {0, 2, 3} are 0, 2, 3);
  //  - row 1 has text in column 1, making the range a contiguous compact
  //    prefix span -> O(1) prefix screen + compensated replay;
  //  - row 2 is the non-contiguous trap: an interleaved usable cell outside
  //    the range means no prefix span exists, and the kernel must replay the
  //    Kahan walk in range order instead of subtracting prefix sums;
  //  - row 3 is a certain miss the screen may reject;
  //  - row 4 has an unusable range cell and must be skipped by both.
  const auto grid = MakeNumeric({
      {"1", "9", "2", "3", "6"},
      {"1.5", "abc", "2.5", "3.5", "7.5"},
      {"2", "100", "3", "4", "9"},
      {"1", "1", "1", "1", "50"},
      {"1", "1", "abc", "1", "2"},
  });
  const std::vector<bool> active(5, true);
  const std::vector<Aggregation> detected = {
      aggrecol::testing::Agg(0, 4, {0, 2, 3}, AggregationFunction::kSum)};
  for (double level : Fig7Levels()) {
    const auto kernel = ExtendAggregations(grid, active, detected, level);
    const auto naive = ExtendAggregationsNaive(grid, active, detected, level);
    ExpectIdenticalScan(kernel, naive,
                        "extension level=" + std::to_string(level));
  }
  const auto kernel = ExtendAggregations(grid, active, detected, 0.0);
  ASSERT_EQ(kernel.size(), 3u);  // seed + contiguous row 1 + trap row 2
  EXPECT_TRUE(aggrecol::testing::Contains(
      kernel,
      aggrecol::testing::Agg(1, 4, {0, 2, 3}, AggregationFunction::kSum)));
  EXPECT_TRUE(aggrecol::testing::Contains(
      kernel,
      aggrecol::testing::Agg(2, 4, {0, 2, 3}, AggregationFunction::kSum)));
}

TEST(ExtensionScreen, PairwiseZeroOperandsSkippedIdentically) {
  // Division pattern col0 = col1 / col2 and relative-change pattern
  // col3 = (col2 - col1) / col1, both seeded on row 0. Row 1 has a zero
  // divisor (c == 0: division undefined, relative change fine); row 2 has a
  // zero base (b == 0: relative change undefined, division fine). The
  // screened path must skip exactly what the reference skips.
  const auto grid = MakeNumeric({
      {"2", "8", "4", "-0.5", "0"},
      {"9", "8", "0", "-1", "0"},
      {"0", "0", "5", "7", "0"},
      {"4", "16", "4", "-0.75", "0"},
      {"5", "8", "4", "3", "0"},
  });
  const std::vector<bool> active(5, true);
  const std::vector<Aggregation> detected = {
      aggrecol::testing::Agg(0, 0, {1, 2}, AggregationFunction::kDivision),
      aggrecol::testing::Agg(0, 3, {1, 2},
                             AggregationFunction::kRelativeChange)};
  for (double level : Fig7Levels()) {
    ExpectIdenticalScan(ExtendAggregations(grid, active, detected, level),
                        ExtendAggregationsNaive(grid, active, detected, level),
                        "pairwise-zero level=" + std::to_string(level));
  }
  const auto kernel = ExtendAggregations(grid, active, detected, 0.0);
  // Row 1: relative change extends ((0 - 8) / 8 = -1), division must not.
  EXPECT_TRUE(aggrecol::testing::Contains(
      kernel, aggrecol::testing::Agg(1, 3, {1, 2},
                                     AggregationFunction::kRelativeChange)));
  EXPECT_FALSE(aggrecol::testing::Contains(
      kernel,
      aggrecol::testing::Agg(1, 0, {1, 2}, AggregationFunction::kDivision)));
  // Row 2: division extends (0 / 5 = 0), relative change must not.
  EXPECT_TRUE(aggrecol::testing::Contains(
      kernel,
      aggrecol::testing::Agg(2, 0, {1, 2}, AggregationFunction::kDivision)));
  EXPECT_FALSE(aggrecol::testing::Contains(
      kernel, aggrecol::testing::Agg(2, 3, {1, 2},
                                     AggregationFunction::kRelativeChange)));
  // Row 3: both extend.
  EXPECT_TRUE(aggrecol::testing::Contains(
      kernel,
      aggrecol::testing::Agg(3, 0, {1, 2}, AggregationFunction::kDivision)));
  EXPECT_TRUE(aggrecol::testing::Contains(
      kernel, aggrecol::testing::Agg(3, 3, {1, 2},
                                     AggregationFunction::kRelativeChange)));
}

TEST(ExtensionScreen, MatchesNaiveOnGeneratedCorpus) {
  // Corpus differential: seed the extension with naive stage-1 detections
  // from even lines only (leaving the odd lines as extension opportunities)
  // and require the screened walk to emit the identical result, bit-equal
  // errors included, on both axes.
  const auto corpus = datagen::GenerateSmallCorpus(60, 0x5EED);
  ASSERT_EQ(corpus.size(), 60u);
  const AggregationFunction functions[] = {AggregationFunction::kSum,
                                           AggregationFunction::kAverage,
                                           AggregationFunction::kDivision};
  for (const auto& file : corpus) {
    const auto grid = numfmt::NumericGrid::FromGrid(file.grid, file.format);
    const numfmt::AxisView views[] = {numfmt::AxisView::Rows(grid),
                                      numfmt::AxisView::Columns(grid)};
    for (const auto& view : views) {
      const std::vector<bool> mask(static_cast<size_t>(view.columns()), true);
      for (double level : {0.0, 0.01}) {
        std::vector<Aggregation> detected;
        for (AggregationFunction function : functions) {
          for (int line = 0; line < view.rows(); line += 2) {
            const auto found =
                TraitsOf(function).commutative
                    ? DetectAdjacentCommutativeNaive(view, mask, line, function,
                                                     level)
                    : DetectWindowPairwiseNaive(view, mask, line, function,
                                                level, 10);
            detected.insert(detected.end(), found.begin(), found.end());
          }
        }
        ExpectIdenticalScan(
            ExtendAggregations(view, mask, detected, level),
            ExtendAggregationsNaive(view, mask, detected, level),
            file.name + " extension axis=" +
                (view.transposed() ? "col" : "row") +
                " level=" + std::to_string(level));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stage-2 collective pruning: precomputed-predicate walk vs naive reference.
// ---------------------------------------------------------------------------

TEST(Stage2Collective, FastPruneMatchesNaiveOnRandomConflicts) {
  // Random candidates crammed into a narrow column space, so ranges overlap,
  // include each other, and share aggregates constantly. Both walks rank with
  // the shared comparator, so the outputs must be elementwise identical.
  const auto grid = MakeNumeric({
      {"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12"},
      {"2", "4", "6", "8", "10", "12", "14", "16", "18", "20", "22", "24"},
      {"3", "6", "9", "12", "15", "18", "21", "24", "27", "30", "33", "36"},
      {"5", "1", "4", "1", "5", "9", "2", "6", "5", "3", "5", "8"},
  });
  const numfmt::AxisView view = numfmt::AxisView::Rows(grid);
  std::mt19937 rng(0xC011EC7);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<Aggregation> candidates;
    for (int i = 0; i < 30; ++i) {
      const auto function =
          kAllFunctions[rng() % kAllFunctions.size()];
      const int aggregate = static_cast<int>(rng() % 12);
      const int length =
          TraitsOf(function).pairwise ? 2 : 1 + static_cast<int>(rng() % 4);
      const int start = static_cast<int>(rng() % 12);
      std::vector<int> range;
      for (int k = 0; k < length; ++k) range.push_back((start + k) % 12);
      candidates.push_back(aggrecol::testing::Agg(
          static_cast<int>(rng() % 4), aggregate, std::move(range), function));
    }
    ExpectIdenticalScan(CollectivePrune(view, candidates),
                        CollectivePruneNaive(view, candidates),
                        "stage2 trial " + std::to_string(trial));
  }
}

TEST(Stage2Collective, DisjointGroupsAllSurviveBothWalks) {
  const auto grid = MakeNumeric({
      {"3", "1", "2", "7", "3", "4", "2", "8", "4", "0.5", "6", "12"},
  });
  const numfmt::AxisView view = numfmt::AxisView::Rows(grid);
  const std::vector<Aggregation> candidates = {
      aggrecol::testing::Agg(0, 0, {1, 2}, AggregationFunction::kSum),
      aggrecol::testing::Agg(0, 3, {4, 5}, AggregationFunction::kSum),
      aggrecol::testing::Agg(0, 7, {6, 8}, AggregationFunction::kDifference),
      aggrecol::testing::Agg(0, 9, {10, 11}, AggregationFunction::kDivision),
  };
  const auto fast = CollectivePrune(view, candidates);
  const auto naive = CollectivePruneNaive(view, candidates);
  ExpectIdenticalScan(fast, naive, "disjoint");
  EXPECT_EQ(fast.size(), candidates.size());
}

TEST(Stage2Collective, GroupStatsMatchRecomputation) {
  // GroupByPattern precomputes sorted_range, side, and ratio_fraction; they
  // must agree with a from-scratch recomputation, and every PatternGroup
  // predicate overload must agree with its Pattern oracle on all pairs.
  const auto grid = MakeNumeric({
      {"0.5", "4", "8", "2", "-0.25", "3"},
      {"1.5", "3", "2", "0", "7", "-2"},
  });
  const numfmt::AxisView view = numfmt::AxisView::Rows(grid);
  const std::vector<Aggregation> candidates = {
      // Division group with one ratio-like member (0.5) and one not (1.5).
      aggrecol::testing::Agg(0, 0, {1, 2}, AggregationFunction::kDivision),
      aggrecol::testing::Agg(1, 0, {1, 2}, AggregationFunction::kDivision),
      // Division group whose observed aggregate is 0 (not ratio-like).
      aggrecol::testing::Agg(1, 3, {4, 5}, AggregationFunction::kDivision),
      // Unsorted mixed-side sum range.
      aggrecol::testing::Agg(0, 3, {4, 5, 1}, AggregationFunction::kSum),
      // Left-side pairwise difference.
      aggrecol::testing::Agg(0, 5, {1, 2}, AggregationFunction::kDifference),
      // Overlapping / including patterns to exercise the predicates.
      aggrecol::testing::Agg(0, 2, {0, 1, 3, 4}, AggregationFunction::kSum),
      aggrecol::testing::Agg(0, 4, {2, 3}, AggregationFunction::kSum),
  };
  const auto groups = GroupByPattern(view, candidates);
  for (const auto& group : groups) {
    std::vector<int> expected_sorted = group.pattern.range;
    std::sort(expected_sorted.begin(), expected_sorted.end());
    EXPECT_EQ(group.sorted_range, expected_sorted);
    EXPECT_EQ(group.side, SideOf(group.pattern));
    if (group.pattern.function == AggregationFunction::kDivision) {
      int ratio_like = 0;
      for (const auto& member : group.members) {
        const double value = view.value(member.line, member.aggregate);
        if (value > -1.0 && value < 1.0 && value != 0.0) ++ratio_like;
      }
      EXPECT_EQ(group.ratio_fraction,
                static_cast<double>(ratio_like) /
                    static_cast<double>(group.members.size()));
    } else {
      EXPECT_EQ(group.ratio_fraction, 0.0);
    }
  }
  for (const auto& a : groups) {
    for (const auto& b : groups) {
      EXPECT_EQ(DirectionalDisagreement(a, b),
                DirectionalDisagreement(a.pattern, b.pattern));
      EXPECT_EQ(CompleteInclusion(a, b), CompleteInclusion(a.pattern, b.pattern));
      EXPECT_EQ(MutualInclusion(a, b), MutualInclusion(a.pattern, b.pattern));
      EXPECT_EQ(SameAggregateOverlappingRange(a, b),
                SameAggregateOverlappingRange(a.pattern, b.pattern));
    }
  }
}

}  // namespace
}  // namespace aggrecol::core
