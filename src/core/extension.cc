#include "core/extension.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "core/line_index.h"

namespace aggrecol::core {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kInflate = 1.0 + 32.0 * kEps;

// One pattern to re-validate across rows, with everything that is
// row-invariant hoisted out of the row loop.
struct PatternPlan {
  // The pattern's first member; only its pattern fields (axis, aggregate,
  // range, function) are read.
  const Aggregation* pattern = nullptr;
  const int* covered_begin = nullptr;  // sorted lines already covered
  const int* covered_end = nullptr;
  bool pairwise = false;
  // Ascending range (always true for adjacency-produced commutative
  // patterns); only then can compact-space contiguity make the range a
  // prefix span.
  bool ascending = false;
  std::vector<Aggregation> accepted;  // per-pattern hits, in row order

  bool Covers(int row) const {
    return std::binary_search(covered_begin, covered_end, row);
  }
};

// The reference per-(pattern, row) check of the naive walk, on the raw view:
// the error level when `row` validates `pattern`, nullopt otherwise.
// `values` is scratch for the range values.
std::optional<double> ValidateRow(const numfmt::AxisView& grid,
                                  const std::vector<bool>& active_columns,
                                  const Aggregation& pattern, int row,
                                  double error_level,
                                  std::vector<double>& values) {
  if (!grid.IsNumeric(row, pattern.aggregate)) return std::nullopt;
  values.clear();
  values.reserve(pattern.range.size());
  for (int col : pattern.range) {
    if (!active_columns[col] || !grid.IsRangeUsable(row, col)) {
      return std::nullopt;
    }
    values.push_back(grid.value(row, col));
  }
  const auto calculated = Apply(pattern.function, values);
  if (!calculated.has_value()) return std::nullopt;
  const double error = ErrorLevel(grid.value(row, pattern.aggregate), *calculated);
  if (!WithinErrorLevel(error, error_level)) return std::nullopt;
  return error;
}

// The aggregation `pattern` validated on `row` with `error`.
Aggregation Validated(const Aggregation& pattern, int row, double error) {
  Aggregation aggregation;
  aggregation.axis = pattern.axis;
  aggregation.line = row;
  aggregation.aggregate = pattern.aggregate;
  aggregation.range = pattern.range;
  aggregation.function = pattern.function;
  aggregation.error = error;
  return aggregation;
}

// Screens pattern `plan` against `row` of the compacted `index` and, when the
// exact replay confirms, records the validated aggregation. The screens are
// the same certain-miss bounds as the stage-1 kernels: commutative ranges
// that are contiguous in compact space use the O(1) prefix-sum test
// (adjacency_strategy.cc); pairwise ranges use the division-free pair bounds
// (window_strategy.cc). Every possible accept replays the reference
// Apply()+ErrorLevel() arithmetic over the same values in the same order, so
// the recorded aggregation and error are bit-identical to the naive walk.
void ExtendRowWithIndex(const numfmt::AxisView& grid, const LineIndex& index,
                        int row, double error_level, PatternPlan& plan) {
  const Aggregation& pattern = *plan.pattern;
  const double observed = grid.value(row, pattern.aggregate);
  const double threshold = (error_level + kErrorSlack) *
                           (observed != 0.0 ? std::fabs(observed) : 1.0);
  const int k = static_cast<int>(pattern.range.size());
  double calculated = 0.0;
  if (plan.pairwise) {
    const int b_pos = index.PosOfColumn(pattern.range[0]);
    const int c_pos = index.PosOfColumn(pattern.range[1]);
    if (b_pos < 0 || c_pos < 0) return;  // unusable range cell: reference skips
    const double b = index.value(b_pos);
    const double c = index.value(c_pos);
    switch (pattern.function) {
      case AggregationFunction::kDifference: {
        const double diff = b - c;
        if (std::fabs(diff - observed) >
            (threshold + kEps * std::fabs(diff)) * kInflate) {
          return;
        }
        break;
      }
      case AggregationFunction::kDivision: {
        if (c == 0.0) return;  // reference: ApplyPairwise is undefined
        const double target = observed * c;
        if (std::fabs(b - target) >
            (threshold * std::fabs(c) + kEps * std::fabs(target)) * kInflate) {
          return;
        }
        break;
      }
      case AggregationFunction::kRelativeChange: {
        if (b == 0.0) return;  // reference: ApplyPairwise is undefined
        const double diff = c - b;
        const double target = observed * b;
        if (std::fabs(diff - target) >
            (threshold * std::fabs(b) +
             kEps * (std::fabs(diff) + std::fabs(target))) *
                kInflate) {
          return;
        }
        break;
      }
      default:
        break;
    }
    const auto exact = ApplyPairwise(pattern.function, b, c);
    if (!exact.has_value()) return;
    calculated = *exact;
  } else {
    // Commutative: every range cell must be usable in this row, exactly as
    // the reference walk requires; gather compact positions and contiguity
    // in one pass over the (already compacted) range.
    int first_pos = -1;
    int expected = -1;
    bool contiguous = plan.ascending;
    for (int col : pattern.range) {
      const int pos = index.PosOfColumn(col);
      if (pos < 0) return;  // unusable range cell: reference skips the row
      if (expected >= 0 && pos != expected) contiguous = false;
      if (first_pos < 0) first_pos = pos;
      expected = pos + 1;
    }
    const double scale =
        pattern.function == AggregationFunction::kAverage
            ? static_cast<double>(k)
            : 1.0;
    if (contiguous) {
      // O(1) certain-miss screen, identical in form to the adjacency kernel.
      const int lo = first_pos;
      const int hi = first_pos + k;
      const double target = observed * scale;
      const double fast_sum = index.PrefixSum(lo, hi);
      const double gap = std::fabs(fast_sum - target);
      const double drift = index.SumErrorBound(hi) +
                           kEps * (std::fabs(fast_sum) + std::fabs(target));
      if (gap > (threshold * scale + drift) * kInflate) return;  // certain miss
      calculated = index.CompensatedSum(lo, hi, /*reverse=*/false) / scale;
    } else {
      // Non-contiguous (an interleaved usable cell outside the range, or a
      // non-ascending range): no prefix span exists; replay the reference
      // walk over the compacted values in range order.
      KahanAccumulator accumulator;
      for (int col : pattern.range) {
        accumulator.Add(index.value(index.PosOfColumn(col)));
      }
      calculated = accumulator.Total() / scale;
    }
  }
  const double error = ErrorLevel(observed, calculated);
  if (!WithinErrorLevel(error, error_level)) return;
  plan.accepted.push_back(Validated(pattern, row, error));
}

}  // namespace

std::vector<Aggregation> ExtendAggregationsNaive(
    const numfmt::AxisView& grid, const std::vector<bool>& active_columns,
    const std::vector<Aggregation>& detected, double error_level) {
  // Pattern -> set of rows already covered.
  std::map<Pattern, std::vector<int>> covered;
  for (const auto& aggregation : detected) {
    covered[PatternOf(aggregation)].push_back(aggregation.line);
  }

  std::vector<Aggregation> out = detected;
  for (auto& [pattern, rows] : covered) {
    std::sort(rows.begin(), rows.end());
    if (!active_columns[pattern.aggregate]) continue;
    Aggregation exemplar;
    exemplar.axis = pattern.axis;
    exemplar.aggregate = pattern.aggregate;
    exemplar.range = pattern.range;
    exemplar.function = pattern.function;
    for (int row = 0; row < grid.rows(); ++row) {
      if (std::binary_search(rows.begin(), rows.end(), row)) continue;
      // A fresh gather buffer per row, as the original walk had: the
      // extension benchmark times the screened path against this cost.
      std::vector<double> values;
      if (const auto error = ValidateRow(grid, active_columns, exemplar, row,
                                         error_level, values)) {
        out.push_back(Validated(exemplar, row, *error));
      }
    }
  }
  return out;
}

std::vector<Aggregation> ExtendAggregations(const numfmt::AxisView& grid,
                                            const std::vector<bool>& active_columns,
                                            std::vector<Aggregation> detected,
                                            double error_level) {
  // Group by pattern with one stable index sort: runs in Pattern order are
  // exactly the naive walk's std::map order, which fixes the emission order.
  // Each run's covered lines are gathered, sorted, into one shared buffer.
  const std::vector<size_t> order = OrderByPattern(detected);
  std::vector<int> covered(order.size());
  for (size_t i = 0; i < order.size(); ++i) covered[i] = detected[order[i]].line;

  // Row-invariant pattern filtering: the active mask does not vary by row,
  // so a pattern with an inactive aggregate or any inactive range column can
  // never validate anywhere — the naive walk re-discovers this per row.
  std::vector<PatternPlan> plans;
  size_t range_cells = 0;
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    const Aggregation& pattern = detected[order[begin]];
    end = begin + 1;
    while (end < order.size() && SamePattern(pattern, detected[order[end]])) ++end;
    if (!active_columns[pattern.aggregate]) continue;
    bool all_active = true;
    for (int col : pattern.range) {
      if (!active_columns[col]) {
        all_active = false;
        break;
      }
    }
    if (!all_active) continue;
    const FunctionTraits traits = TraitsOf(pattern.function);
    if (pattern.range.empty()) continue;                         // Apply: nullopt
    if (traits.pairwise && pattern.range.size() != 2) continue;  // Apply: nullopt
    std::sort(covered.begin() + static_cast<std::ptrdiff_t>(begin),
              covered.begin() + static_cast<std::ptrdiff_t>(end));
    PatternPlan plan;
    plan.pattern = &pattern;
    plan.covered_begin = covered.data() + begin;
    plan.covered_end = covered.data() + end;
    plan.pairwise = traits.pairwise;
    plan.ascending = std::is_sorted(pattern.range.begin(), pattern.range.end());
    plans.push_back(std::move(plan));
    range_cells += pattern.range.size();
  }

  // Cost model: the indexed path pays one O(columns) compaction per row
  // (each compacted cell costs roughly 3x a naively gathered one — mask and
  // kind branches plus prefix/drift bookkeeping) and amortizes it over every
  // pattern, where it saves that pattern's per-row range gather and, on miss
  // rows, its whole range walk. Switch to the index only when the saved work
  // clearly exceeds the compaction; both checks are differentially
  // bit-identical, so this is purely about cost, never about results.
  const bool use_index = range_cells + 16 * plans.size() >=
                         3 * static_cast<size_t>(grid.columns());
  if (use_index) {
    LineIndex index;
    for (int row = 0; row < grid.rows(); ++row) {
      index.Build(grid, active_columns, row);
      for (PatternPlan& plan : plans) {
        if (plan.Covers(row)) continue;
        if (!grid.IsNumeric(row, plan.pattern->aggregate)) continue;
        ExtendRowWithIndex(grid, index, row, error_level, plan);
      }
    }
  } else {
    std::vector<double> values;
    for (PatternPlan& plan : plans) {
      for (int row = 0; row < grid.rows(); ++row) {
        if (plan.Covers(row)) continue;
        if (const auto error = ValidateRow(grid, active_columns, *plan.pattern,
                                           row, error_level, values)) {
          plan.accepted.push_back(Validated(*plan.pattern, row, *error));
        }
      }
    }
  }

  // Emit in the naive order: `detected` first, then patterns in map order
  // with rows ascending within each pattern. Growing `detected` invalidates
  // the plans' pattern pointers; only their own hit lists are read below.
  size_t added = 0;
  for (const PatternPlan& plan : plans) added += plan.accepted.size();
  if (added == 0) return detected;
  detected.reserve(detected.size() + added);
  for (PatternPlan& plan : plans) {
    detected.insert(detected.end(), std::make_move_iterator(plan.accepted.begin()),
                    std::make_move_iterator(plan.accepted.end()));
  }
  return detected;
}

}  // namespace aggrecol::core
