#include "core/pruning.h"

#include <algorithm>
#include <map>
#include <string>

#include "core/adjacency_strategy.h"
#include "core/extension.h"
#include "core/window_strategy.h"
#include "datagen/corpus.h"
#include "gtest/gtest.h"
#include "numfmt/axis_view.h"
#include "tests/test_support.h"

namespace aggrecol::core {
namespace {

using aggrecol::testing::Agg;
using aggrecol::testing::Contains;
using aggrecol::testing::MakeNumeric;

Pattern MakePattern(int aggregate, std::vector<int> range, AggregationFunction function,
                    Axis axis = Axis::kRow) {
  Pattern pattern;
  pattern.axis = axis;
  pattern.aggregate = aggregate;
  pattern.range = std::move(range);
  pattern.function = function;
  return pattern;
}

TEST(SideOf, LeftRightMixed) {
  EXPECT_EQ(SideOf(MakePattern(4, {5, 6, 7}, AggregationFunction::kSum)),
            RangeSide::kRight);
  EXPECT_EQ(SideOf(MakePattern(4, {2, 3}, AggregationFunction::kSum)),
            RangeSide::kLeft);
  EXPECT_EQ(SideOf(MakePattern(4, {2, 6}, AggregationFunction::kSum)),
            RangeSide::kMixed);
}

TEST(DirectionalDisagreement, PaperExample) {
  // (row:3, 4 <- {5,6,7}) vs (row:3, 4 <- {2,3}) — same aggregate, opposite
  // sides: conflict (Sec. 3.1).
  const Pattern right = MakePattern(4, {5, 6, 7}, AggregationFunction::kSum);
  const Pattern left = MakePattern(4, {2, 3}, AggregationFunction::kSum);
  EXPECT_TRUE(DirectionalDisagreement(right, left));
  EXPECT_TRUE(DirectionalDisagreement(left, right));
}

TEST(DirectionalDisagreement, RequiresSameAggregateAndFunction) {
  const Pattern a = MakePattern(4, {5, 6}, AggregationFunction::kSum);
  const Pattern b = MakePattern(3, {1, 2}, AggregationFunction::kSum);
  EXPECT_FALSE(DirectionalDisagreement(a, b));
  const Pattern c = MakePattern(4, {2, 3}, AggregationFunction::kAverage);
  EXPECT_FALSE(DirectionalDisagreement(a, c));
}

TEST(DirectionalDisagreement, SameSideIsFine) {
  const Pattern a = MakePattern(4, {5, 6}, AggregationFunction::kSum);
  const Pattern b = MakePattern(4, {5, 6, 7}, AggregationFunction::kSum);
  EXPECT_FALSE(DirectionalDisagreement(a, b));
}

TEST(CompleteInclusion, PaperExample) {
  // (row:1, 4 <- {5,6}) and (row:1, 3 <- {4,5,6,7}): the first aggregation's
  // aggregate and part of its range lie inside the second's range.
  const Pattern inner = MakePattern(4, {5, 6}, AggregationFunction::kSum);
  const Pattern outer = MakePattern(3, {4, 5, 6, 7}, AggregationFunction::kSum);
  EXPECT_TRUE(CompleteInclusion(inner, outer));
  EXPECT_TRUE(CompleteInclusion(outer, inner));  // symmetric check
}

TEST(CompleteInclusion, RequiresRangeOverlap) {
  // Aggregate inside the other range but disjoint ranges: no inclusion.
  const Pattern a = MakePattern(4, {8, 9}, AggregationFunction::kSum);
  const Pattern b = MakePattern(3, {4, 5}, AggregationFunction::kSum);
  EXPECT_FALSE(CompleteInclusion(a, b));
}

TEST(CompleteInclusion, DifferentAxesNeverConflict) {
  const Pattern a = MakePattern(4, {5, 6}, AggregationFunction::kSum, Axis::kRow);
  const Pattern b =
      MakePattern(3, {4, 5, 6, 7}, AggregationFunction::kSum, Axis::kColumn);
  EXPECT_FALSE(CompleteInclusion(a, b));
}

TEST(MutualInclusion, PaperExample) {
  // (row:1, 4 <- {5,6}) and (row:1, 5 <- {3,4}) are mutually inclusive.
  const Pattern a = MakePattern(4, {5, 6}, AggregationFunction::kSum);
  const Pattern b = MakePattern(5, {3, 4}, AggregationFunction::kSum);
  EXPECT_TRUE(MutualInclusion(a, b));
  EXPECT_TRUE(MutualInclusion(b, a));
}

TEST(MutualInclusion, OneWayIsNotMutual) {
  const Pattern a = MakePattern(4, {5, 6}, AggregationFunction::kSum);
  const Pattern b = MakePattern(5, {7, 8}, AggregationFunction::kSum);
  EXPECT_FALSE(MutualInclusion(a, b));
}

TEST(GroupByPattern, SufficiencyUsesNumericColumnCount) {
  // Column 0 has 4 numeric cells; the pattern holds in 2 rows -> 0.5.
  const auto grid = MakeNumeric({
      {"3", "1", "2"},
      {"5", "2", "3"},
      {"9", "1", "1"},
      {"7", "3", "3"},
  });
  const std::vector<Aggregation> candidates = {
      Agg(0, 0, {1, 2}, AggregationFunction::kSum),
      Agg(1, 0, {1, 2}, AggregationFunction::kSum),
  };
  const auto groups = GroupByPattern(grid, candidates);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_DOUBLE_EQ(groups[0].sufficiency, 0.5);
  EXPECT_EQ(groups[0].members.size(), 2u);
}

TEST(GroupByPattern, MeanError) {
  const auto grid = MakeNumeric({{"3", "1", "2"}, {"5", "2", "3"}});
  const std::vector<Aggregation> candidates = {
      Agg(0, 0, {1, 2}, AggregationFunction::kSum, Axis::kRow, 0.02),
      Agg(1, 0, {1, 2}, AggregationFunction::kSum, Axis::kRow, 0.04),
  };
  const auto groups = GroupByPattern(grid, candidates);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_DOUBLE_EQ(groups[0].mean_error, 0.03);
}

TEST(PruneIndividual, DropsLowCoverageGroups) {
  // Pattern A holds in 3/4 rows (0.75 >= 0.7), pattern B in 1/4 (0.25 < 0.7).
  const auto grid = MakeNumeric({
      {"3", "1", "2", "9"},
      {"5", "2", "3", "9"},
      {"7", "3", "4", "9"},
      {"8", "4", "5", "9"},
  });
  const std::vector<Aggregation> candidates = {
      Agg(0, 0, {1, 2}, AggregationFunction::kSum),
      Agg(1, 0, {1, 2}, AggregationFunction::kSum),
      Agg(2, 0, {1, 2}, AggregationFunction::kSum),
      Agg(3, 3, {1, 2}, AggregationFunction::kSum),  // lone candidate
  };
  const auto pruned = PruneIndividual(grid, candidates, 0.7);
  EXPECT_EQ(pruned.size(), 3u);
  EXPECT_FALSE(Contains(pruned, candidates[3]));
}

TEST(PruneIndividual, SameAggregateKeepsHigherSufficiency) {
  const auto grid = MakeNumeric({
      {"3", "1", "2", "1"},
      {"5", "2", "3", "4"},
      {"7", "3", "4", "2"},
  });
  // Both patterns aggregate into column 0; the first has 3 members, the
  // second only 2 — with 3 numeric cells in column 0 that is 1.0 vs 0.67.
  const std::vector<Aggregation> candidates = {
      Agg(0, 0, {1, 2}, AggregationFunction::kSum),
      Agg(1, 0, {1, 2}, AggregationFunction::kSum),
      Agg(2, 0, {1, 2}, AggregationFunction::kSum),
      Agg(0, 0, {1, 3}, AggregationFunction::kSum),
      Agg(1, 0, {1, 3}, AggregationFunction::kSum),
  };
  const auto pruned = PruneIndividual(grid, candidates, 0.5);
  EXPECT_EQ(pruned.size(), 3u);
  for (const auto& aggregation : pruned) {
    EXPECT_EQ(aggregation.range, (std::vector<int>{1, 2}));
  }
}

TEST(PruneIndividual, SameRangeKeepsHigherSufficiency) {
  const auto grid = MakeNumeric({
      {"3", "1", "2", "3"},
      {"5", "2", "3", "5"},
      {"7", "3", "4", "9"},
  });
  // Two patterns share range {1, 2} with different aggregates.
  const std::vector<Aggregation> candidates = {
      Agg(0, 0, {1, 2}, AggregationFunction::kSum),
      Agg(1, 0, {1, 2}, AggregationFunction::kSum),
      Agg(2, 0, {1, 2}, AggregationFunction::kSum),
      Agg(0, 3, {1, 2}, AggregationFunction::kSum),
      Agg(1, 3, {1, 2}, AggregationFunction::kSum),
  };
  const auto pruned = PruneIndividual(grid, candidates, 0.5);
  EXPECT_EQ(pruned.size(), 3u);
  for (const auto& aggregation : pruned) {
    EXPECT_EQ(aggregation.aggregate, 0);
  }
}

TEST(PruneIndividual, DirectionalConflictResolvedByRank) {
  const auto grid = MakeNumeric({
      {"1", "2", "3", "2", "1"},
      {"2", "1", "3", "2", "1"},
      {"9", "8", "17", "9", "8"},
  });
  // Column 2 aggregates both left {0,1} and right {3,4}; left holds in all
  // three rows, right only in row 2 — wait, both hold in all rows here, so
  // craft: left group has 3 members, right 2.
  const std::vector<Aggregation> candidates = {
      Agg(0, 2, {0, 1}, AggregationFunction::kSum),
      Agg(1, 2, {0, 1}, AggregationFunction::kSum),
      Agg(2, 2, {0, 1}, AggregationFunction::kSum),
      Agg(0, 2, {3, 4}, AggregationFunction::kSum),
      Agg(1, 2, {3, 4}, AggregationFunction::kSum),
  };
  const auto pruned = PruneIndividual(grid, candidates, 0.5);
  // The same-aggregate dedup already keeps the better-covered left group;
  // directional disagreement would likewise reject the right one.
  EXPECT_EQ(pruned.size(), 3u);
  for (const auto& aggregation : pruned) {
    EXPECT_EQ(aggregation.range, (std::vector<int>{0, 1}));
  }
}

TEST(PruneIndividual, CompleteInclusionPrunesLowerRank) {
  const auto grid = MakeNumeric({
      {"10", "4", "2", "2", "2"},
      {"12", "6", "2", "2", "2"},
      {"14", "8", "2", "2", "2"},
  });
  // Outer pattern 0 <- {1,2,3,4} (3 members) vs inner 1 <- {2,3} (3 members,
  // completely included in the outer range together with its aggregate).
  const std::vector<Aggregation> candidates = {
      Agg(0, 0, {1, 2, 3, 4}, AggregationFunction::kSum),
      Agg(1, 0, {1, 2, 3, 4}, AggregationFunction::kSum),
      Agg(2, 0, {1, 2, 3, 4}, AggregationFunction::kSum),
      Agg(0, 1, {2, 3}, AggregationFunction::kSum),
      Agg(1, 1, {2, 3}, AggregationFunction::kSum),
  };
  const auto pruned = PruneIndividual(grid, candidates, 0.5);
  EXPECT_EQ(pruned.size(), 3u);
  for (const auto& aggregation : pruned) {
    EXPECT_EQ(aggregation.aggregate, 0);
  }
}

TEST(PruneIndividual, RuleTogglesDisableSteps) {
  // Low-coverage group survives when the coverage threshold is off.
  const auto grid = MakeNumeric({
      {"3", "1", "2"},
      {"9", "1", "2"},
      {"8", "1", "2"},
      {"7", "1", "2"},
  });
  const std::vector<Aggregation> lone = {Agg(0, 0, {1, 2}, AggregationFunction::kSum)};
  EXPECT_TRUE(PruneIndividual(grid, lone, 0.7).empty());
  PruningRules no_coverage;
  no_coverage.coverage_threshold = false;
  EXPECT_EQ(PruneIndividual(grid, lone, 0.7, no_coverage).size(), 1u);
}

TEST(PruneIndividual, MutualInclusionToggle) {
  const auto grid = MakeNumeric({
      {"6", "1", "2", "3"},
      {"6", "1", "2", "3"},
  });
  // Mutually inclusive pair with equal coverage.
  const std::vector<Aggregation> candidates = {
      Agg(0, 1, {2, 0}, AggregationFunction::kSum),
      Agg(1, 1, {2, 0}, AggregationFunction::kSum),
      Agg(0, 0, {1, 2}, AggregationFunction::kSum),
      Agg(1, 0, {1, 2}, AggregationFunction::kSum),
  };
  // Isolate the mutual-inclusion rule: disable the dedup steps and the
  // complete-inclusion rule (which also fires on this overlapping pair).
  PruningRules isolated;
  isolated.same_range_dedup = false;
  isolated.complete_inclusion = false;
  const auto with_rule = PruneIndividual(grid, candidates, 0.5, isolated);
  EXPECT_EQ(with_rule.size(), 2u);
  PruningRules no_mutual = isolated;
  no_mutual.mutual_inclusion = false;
  const auto without_rule = PruneIndividual(grid, candidates, 0.5, no_mutual);
  EXPECT_EQ(without_rule.size(), 4u);
}

TEST(PruneIndividual, CompleteInclusionToggle) {
  const auto grid = MakeNumeric({
      {"10", "4", "2", "2", "2"},
      {"12", "6", "2", "2", "2"},
      {"14", "8", "2", "2", "2"},
  });
  const std::vector<Aggregation> candidates = {
      Agg(0, 0, {1, 2, 3, 4}, AggregationFunction::kSum),
      Agg(1, 0, {1, 2, 3, 4}, AggregationFunction::kSum),
      Agg(2, 0, {1, 2, 3, 4}, AggregationFunction::kSum),
      Agg(0, 1, {2, 3}, AggregationFunction::kSum),
      Agg(1, 1, {2, 3}, AggregationFunction::kSum),
  };
  EXPECT_EQ(PruneIndividual(grid, candidates, 0.5).size(), 3u);
  PruningRules no_complete;
  no_complete.complete_inclusion = false;
  EXPECT_EQ(PruneIndividual(grid, candidates, 0.5, no_complete).size(), 5u);
}

TEST(PruneIndividual, EmptyInput) {
  const auto grid = MakeNumeric({{"1"}});
  EXPECT_TRUE(PruneIndividual(grid, {}, 0.7).empty());
}

// The std::map grouping GroupByPattern used before it moved to a stable
// index sort, kept here as the parity oracle: one map node and one Pattern
// copy per candidate, members copied into their group in input order, groups
// emitted in map (Pattern) order.
std::vector<PatternGroup> GroupByPatternMapOracle(
    const numfmt::AxisView& grid, const std::vector<Aggregation>& candidates) {
  std::map<Pattern, PatternGroup> groups;
  for (const auto& candidate : candidates) {
    const Pattern pattern = PatternOf(candidate);
    auto& group = groups[pattern];
    group.pattern = pattern;
    group.members.push_back(candidate);
  }
  std::vector<PatternGroup> out;
  for (auto& [pattern, group] : groups) {
    const int numeric_in_column = grid.NumericCountInColumn(pattern.aggregate);
    group.sufficiency =
        numeric_in_column > 0
            ? static_cast<double>(group.members.size()) / numeric_in_column
            : 0.0;
    double total_error = 0.0;
    for (const auto& member : group.members) total_error += member.error;
    group.mean_error = total_error / static_cast<double>(group.members.size());
    group.sorted_range = pattern.range;
    std::sort(group.sorted_range.begin(), group.sorted_range.end());
    group.side = SideOf(pattern);
    if (pattern.function == AggregationFunction::kDivision) {
      int ratio_like = 0;
      for (const auto& member : group.members) {
        const double value = grid.value(member.line, member.aggregate);
        if (value > -1.0 && value < 1.0 && value != 0.0) ++ratio_like;
      }
      group.ratio_fraction = static_cast<double>(ratio_like) /
                             static_cast<double>(group.members.size());
    }
    out.push_back(std::move(group));
  }
  return out;
}

void ExpectSameGroups(const std::vector<PatternGroup>& actual,
                      const std::vector<PatternGroup>& expected,
                      const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t g = 0; g < actual.size(); ++g) {
    const PatternGroup& a = actual[g];
    const PatternGroup& e = expected[g];
    ASSERT_EQ(a.pattern, e.pattern) << context << " group " << g;
    ASSERT_EQ(a.members.size(), e.members.size()) << context << " group " << g;
    for (size_t m = 0; m < a.members.size(); ++m) {
      EXPECT_EQ(a.members[m], e.members[m]) << context << " group " << g;
      EXPECT_EQ(a.members[m].error, e.members[m].error) << context;
    }
    // Bitwise equality: same members summed in the same order.
    EXPECT_EQ(a.sufficiency, e.sufficiency) << context << " group " << g;
    EXPECT_EQ(a.mean_error, e.mean_error) << context << " group " << g;
    EXPECT_EQ(a.sorted_range, e.sorted_range) << context << " group " << g;
    EXPECT_EQ(a.side, e.side) << context << " group " << g;
    EXPECT_EQ(a.ratio_fraction, e.ratio_fraction) << context << " group " << g;
  }
}

TEST(GroupByPattern, MatchesMapGroupingOnGeneratedCorpus) {
  // Both axes x all five functions on the 200-file battery. The candidates
  // are a full stage-1 scan plus its extension, so groups span many lines
  // and extension appends members out of line order — member order within a
  // group must still be input order, as the map grouping kept it.
  const auto corpus = datagen::GenerateSmallCorpus(200, 0xA66);
  ASSERT_EQ(corpus.size(), 200u);
  size_t groups_checked = 0;
  for (const auto& file : corpus) {
    const auto grid = numfmt::NumericGrid::FromGrid(file.grid, file.format);
    const numfmt::AxisView views[] = {numfmt::AxisView::Rows(grid),
                                      numfmt::AxisView::Columns(grid)};
    for (const auto& view : views) {
      const std::vector<bool> mask(static_cast<size_t>(view.columns()), true);
      for (AggregationFunction function : kAllFunctions) {
        for (double level : {0.0, 0.05}) {
          std::vector<Aggregation> candidates;
          for (int line = 0; line < view.rows(); ++line) {
            const auto found =
                TraitsOf(function).commutative
                    ? DetectAdjacentCommutative(view, mask, line, function, level)
                    : DetectWindowPairwise(view, mask, line, function, level, 10);
            candidates.insert(candidates.end(), found.begin(), found.end());
          }
          candidates = ExtendAggregations(view, mask, candidates, level);
          const std::string context =
              file.name + " axis=" + (view.transposed() ? "col" : "row") +
              " fn=" + ToString(function) + " level=" + std::to_string(level);
          const auto expected = GroupByPatternMapOracle(view, candidates);
          ExpectSameGroups(GroupByPattern(view, candidates), expected, context);
          groups_checked += expected.size();
        }
      }
    }
  }
  EXPECT_GT(groups_checked, 1000u);
}

}  // namespace
}  // namespace aggrecol::core
