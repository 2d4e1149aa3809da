#include "core/adjacency_strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/line_index.h"

namespace aggrecol::core {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

// Grows the adjacency list from compact position `pos` of `index` in
// direction `step` (+1 or -1) and returns the first matching aggregation, if
// any. Each candidate size is first evaluated as a prefix subtraction; only
// when the conservative rounding bound cannot *reject* the candidate does the
// compensated per-element walk run. A candidate is only ever accepted from
// the exact walk, so the emitted decision and error level are those of the
// reference scan regardless of how tight the bound is.
std::optional<Aggregation> SearchDirectionIndexed(const LineIndex& index,
                                                  int row, int pos, int step,
                                                  AggregationFunction function,
                                                  double error_level) {
  const double observed = index.value(pos);
  const bool average = function == AggregationFunction::kAverage;
  const int min_range = MinRangeSize(function);
  const int limit = step > 0 ? index.size() - 1 - pos : pos;

  // Division-free screen. The reference tests
  //   |calc - obs| / |obs| <= level + slack   (obs != 0; calc = sum / scale)
  //   |calc - obs|         <= level + slack   (obs == 0)
  // with scale = m for average and 1 for sum. Multiplying through by
  // scale * |obs| (resp. scale) turns both into one absolute comparison on
  // the raw prefix-subtracted sum — no division per candidate:
  //   |sum - obs*scale| > (threshold*scale + drift) * kInflate  => certain miss
  // `drift` bounds |sum_fast - sum_exact| plus the rounding of forming the
  // screen's own terms; kInflate absorbs the few-eps relative rounding of the
  // reference's division/comparison. The screen therefore only ever certifies
  // misses; any potential accept falls through to the exact replay, which
  // alone decides — keeping the kernel bit-identical to the naive scan.
  constexpr double kInflate = 1.0 + 32.0 * kEps;
  const double threshold = (error_level + kErrorSlack) *
                           (observed != 0.0 ? std::fabs(observed) : 1.0);
  for (int m = min_range; m <= limit; ++m) {
    const int lo = step > 0 ? pos + 1 : pos - m;
    const int hi = step > 0 ? pos + 1 + m : pos;  // exclusive
    const double scale = average ? static_cast<double>(m) : 1.0;
    const double target = observed * scale;
    const double fast_sum = index.PrefixSum(lo, hi);
    const double gap = std::fabs(fast_sum - target);
    const double drift = index.SumErrorBound(hi) +
                         kEps * (std::fabs(fast_sum) + std::fabs(target));
    if (gap > (threshold * scale + drift) * kInflate) continue;  // certain miss

    // Ambiguous or likely hit: replay the reference walk over this span (the
    // incremental Kahan state after m adds equals a fresh compensated sum of
    // the same values in the same order).
    const double exact_sum = index.CompensatedSum(lo, hi, /*reverse=*/step < 0);
    const double calculated =
        average ? exact_sum / static_cast<double>(m) : exact_sum;
    const double error = ErrorLevel(observed, calculated);
    if (!WithinErrorLevel(error, error_level)) continue;

    Aggregation found;
    found.axis = Axis::kRow;
    found.line = row;
    found.aggregate = index.col(pos);
    found.range.reserve(static_cast<size_t>(m));
    for (int p = lo; p < hi; ++p) found.range.push_back(index.col(p));
    found.function = function;
    found.error = error;
    return found;
  }
  return std::nullopt;
}

// The reference per-candidate walk of the naive implementation, on the raw
// view. Sums with the same incremental Kahan accumulator the kernel's exact
// path replays.
std::optional<Aggregation> SearchDirection(const numfmt::AxisView& view,
                                           const std::vector<bool>& active_columns,
                                           int row, int aggregate_col, int step,
                                           AggregationFunction function,
                                           double error_level) {
  const double observed = view.value(row, aggregate_col);
  const int min_range = MinRangeSize(function);
  std::vector<int> range;
  KahanAccumulator running_sum;
  for (int col = aggregate_col + step; col >= 0 && col < view.columns(); col += step) {
    if (!active_columns[col]) continue;
    if (!view.IsRangeUsable(row, col)) continue;  // text cells are skipped
    range.push_back(col);
    running_sum.Add(view.value(row, col));
    if (static_cast<int>(range.size()) < min_range) continue;
    const double calculated = function == AggregationFunction::kAverage
                                  ? running_sum.Total() / static_cast<double>(range.size())
                                  : running_sum.Total();
    if (WithinErrorLevel(ErrorLevel(observed, calculated), error_level)) {
      Aggregation found;
      found.axis = Axis::kRow;
      found.line = row;
      found.aggregate = aggregate_col;
      found.range = range;
      if (step < 0) std::reverse(found.range.begin(), found.range.end());
      found.function = function;
      found.error = ErrorLevel(observed, calculated);
      return found;
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<Aggregation> DetectAdjacentCommutative(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level) {
  std::vector<Aggregation> found;
  LineIndex index;
  DetectAdjacentCommutative(view, active_columns, row, function, error_level,
                            index, found);
  return found;
}

void DetectAdjacentCommutative(const numfmt::AxisView& view,
                               const std::vector<bool>& active_columns, int row,
                               AggregationFunction function, double error_level,
                               LineIndex& index, std::vector<Aggregation>& out) {
  index.Build(view, active_columns, row);
  for (int pos = 0; pos < index.size(); ++pos) {
    if (!index.is_numeric(pos)) continue;  // aggregates must be explicit numbers
    for (int step : {+1, -1}) {
      if (auto aggregation = SearchDirectionIndexed(index, row, pos, step,
                                                    function, error_level)) {
        out.push_back(std::move(*aggregation));
      }
    }
  }
}

std::vector<Aggregation> DetectAdjacentCommutativeNaive(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level) {
  std::vector<Aggregation> found;
  for (int j = 0; j < view.columns(); ++j) {
    if (!active_columns[j]) continue;
    if (!view.IsNumeric(row, j)) continue;  // aggregates must be explicit numbers
    for (int step : {+1, -1}) {
      if (auto aggregation = SearchDirection(view, active_columns, row, j, step,
                                             function, error_level)) {
        found.push_back(std::move(*aggregation));
      }
    }
  }
  return found;
}

}  // namespace aggrecol::core
