#include "core/adjacency_strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/line_index.h"

namespace aggrecol::core {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

// kInflate absorbs the few-eps relative rounding of the reference's
// division/comparison in the per-size screen (see ScreenSizes).
constexpr double kInflate = 1.0 + 32.0 * kEps;

// One aggregate cell's adjacency search in one direction over `index`.
struct DirectionSearch {
  const LineIndex& index;
  int row;
  int pos;
  int step;  // +1 or -1
  AggregationFunction function;
  double error_level;
  double observed;
  bool average;
  // (error_level + slack) * |observed| (or * 1 for a zero observed value):
  // the screen's tolerance on |sum - observed * scale| before the scale.
  double threshold;
};

// Range sizes first..last of `search`, smallest first: the first size whose
// range aggregates to the observed value within the error level, if any.
// Each candidate size is first evaluated as a prefix subtraction; only when
// the conservative rounding bound cannot *reject* the candidate does the
// compensated per-element walk run. A candidate is only ever accepted from
// the exact walk, so the emitted decision and error level are those of the
// reference scan regardless of how tight the bound is.
std::optional<Aggregation> ScreenSizes(const DirectionSearch& search, int first,
                                       int last) {
  const LineIndex& index = search.index;
  const int pos = search.pos;
  const int step = search.step;
  const bool average = search.average;
  const double observed = search.observed;
  const double threshold = search.threshold;

  // Division-free screen. The reference tests
  //   |calc - obs| / |obs| <= level + slack   (obs != 0; calc = sum / scale)
  //   |calc - obs|         <= level + slack   (obs == 0)
  // with scale = m for average and 1 for sum. Multiplying through by
  // scale * |obs| (resp. scale) turns both into one absolute comparison on
  // the raw prefix-subtracted sum — no division per candidate:
  //   |sum - obs*scale| > (threshold*scale + drift) * kInflate  => certain miss
  // `drift` bounds |sum_fast - sum_exact| plus the rounding of forming the
  // screen's own terms. The screen therefore only ever certifies misses; any
  // potential accept falls through to the exact replay, which alone decides —
  // keeping the kernel bit-identical to the naive scan.
  for (int m = first; m <= last; ++m) {
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
    if (!WithinErrorLevel(error, search.error_level)) continue;

    Aggregation found;
    found.axis = Axis::kRow;
    found.line = search.row;
    found.aggregate = index.col(pos);
    found.range.reserve(static_cast<size_t>(m));
    for (int p = lo; p < hi; ++p) found.range.push_back(index.col(p));
    found.function = search.function;
    found.error = error;
    return found;
  }
  return std::nullopt;
}

// True when the per-size screen of ScreenSizes certainly rejects every range
// size in [first, last], tested at once through the prefix min/max table.
//
// For step > 0 the range start lo is fixed and the end hi spans a block of
// prefix entries; for step < 0 the end is fixed and the start spans one. So
// every fast sum P[hi] - P[lo] of the block lies in [sum_low, sum_high],
// formed from the block's prefix minimum and maximum by the same
// subtraction — and because rounded subtraction is monotone in each operand,
// the bounds hold for the rounded per-size values, not just the real ones.
// The per-size target obs*m likewise lies between obs*first and obs*last.
// The block's widest right-hand side takes every operand of the per-size
// one at its block maximum (drift at the far end, tolerance at `last`, the
// largest sum and target magnitudes); each rounded operation is monotone in
// its non-negative operands, so it is at least every per-size value. When
// the target interval misses the sum interval by more than that, each size's
// gap exceeds its own bound and the per-size screen would reject it.
// Doubling the eps term is headroom for a build that fuses a product into
// the per-size subtraction.
bool BlockCertainMiss(const DirectionSearch& search, int first, int last) {
  const LineIndex& index = search.index;
  double sum_low = 0.0;
  double sum_high = 0.0;
  double drift = 0.0;
  if (search.step > 0) {
    const int lo = search.pos + 1;
    const double base = index.Prefix(lo);
    sum_low = index.PrefixMin(lo + first, lo + last + 1) - base;
    sum_high = index.PrefixMax(lo + first, lo + last + 1) - base;
    drift = index.SumErrorBound(lo + last);
  } else {
    const int hi = search.pos;
    const double top = index.Prefix(hi);
    sum_low = top - index.PrefixMax(hi - last, hi - first + 1);
    sum_high = top - index.PrefixMin(hi - last, hi - first + 1);
    drift = index.SumErrorBound(hi);
  }
  double target_low = search.observed;
  double target_high = search.observed;
  double tolerance = search.threshold;
  if (search.average) {
    const double at_first = search.observed * static_cast<double>(first);
    const double at_last = search.observed * static_cast<double>(last);
    target_low = std::min(at_first, at_last);
    target_high = std::max(at_first, at_last);
    tolerance = search.threshold * static_cast<double>(last);
  }
  const double sum_magnitude = std::max(std::fabs(sum_low), std::fabs(sum_high));
  const double target_magnitude =
      std::max(std::fabs(target_low), std::fabs(target_high));
  const double bound =
      (tolerance + (drift + 2.0 * kEps * (sum_magnitude + target_magnitude))) *
      kInflate;
  return sum_low - target_high > bound || target_low - sum_high > bound;
}

// Left-first bisection over range sizes [first, last]: a block the block
// test rejects is skipped whole, a leaf-sized block runs the per-size
// screen, and any other block searches its lower half before its upper one.
// Every skipped size is one the per-size screen would have rejected, and
// sizes are tried in ascending order, so the first accept is the one the
// linear walk finds.
std::optional<Aggregation> BisectSizes(const DirectionSearch& search, int first,
                                       int last) {
  if (BlockCertainMiss(search, first, last)) return std::nullopt;
  if (last - first < kAdjacencyLeafSizes) {
    return ScreenSizes(search, first, last);
  }
  const int middle = first + (last - first) / 2;
  if (auto found = BisectSizes(search, first, middle)) return found;
  return BisectSizes(search, middle + 1, last);
}

// Grows the adjacency list from compact position `pos` of `index` in
// direction `step` (+1 or -1) and returns the first matching aggregation, if
// any. With `bisect` (the line's prefix min/max table is built) the range
// sizes are searched by BisectSizes, otherwise walked by ScreenSizes.
std::optional<Aggregation> SearchDirectionIndexed(const LineIndex& index,
                                                  int row, int pos, int step,
                                                  AggregationFunction function,
                                                  double error_level,
                                                  bool bisect) {
  const double observed = index.value(pos);
  const DirectionSearch search{
      index,
      row,
      pos,
      step,
      function,
      error_level,
      observed,
      function == AggregationFunction::kAverage,
      (error_level + kErrorSlack) * (observed != 0.0 ? std::fabs(observed) : 1.0)};
  const int min_range = MinRangeSize(function);
  const int limit = step > 0 ? index.size() - 1 - pos : pos;
  if (bisect && limit - min_range >= kAdjacencyLeafSizes) {
    return BisectSizes(search, min_range, limit);
  }
  return ScreenSizes(search, min_range, limit);
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
  // Only a line longer than one leaf has a search worth bisecting.
  const bool bisect =
      index.size() > kAdjacencyLeafSizes && index.BuildPrefixBounds();
  for (int pos = 0; pos < index.size(); ++pos) {
    if (!index.is_numeric(pos)) continue;  // aggregates must be explicit numbers
    for (int step : {+1, -1}) {
      if (auto aggregation = SearchDirectionIndexed(index, row, pos, step,
                                                    function, error_level,
                                                    bisect)) {
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
