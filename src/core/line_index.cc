#include "core/line_index.h"

#include <cmath>
#include <limits>

#include "core/function.h"

namespace aggrecol::core {

void LineIndex::Build(const numfmt::AxisView& view,
                      const std::vector<bool>& active, int line) {
  cols_.clear();
  values_.clear();
  numeric_.clear();
  prefix_.clear();
  prefix_abs_.clear();
  drift_.clear();

  const int columns = view.columns();
  cols_.reserve(static_cast<size_t>(columns));
  values_.reserve(static_cast<size_t>(columns));
  numeric_.reserve(static_cast<size_t>(columns));
  prefix_.reserve(static_cast<size_t>(columns) + 1);
  prefix_abs_.reserve(static_cast<size_t>(columns) + 1);
  drift_.reserve(static_cast<size_t>(columns) + 1);
  pos_of_col_.assign(static_cast<size_t>(columns), -1);

  // drift_[p] = gamma_n-style bound on how far PrefixSum can sit from the
  // compensated reference for a span ending at p: gamma_n ~= n*eps covers the
  // sequential adds feeding prefix_[p]; the extra constant absorbs the prefix
  // subtraction itself and the residual O(eps) of the compensated reference
  // the screen is compared against. The 1.25 headroom keeps the bound safely
  // conservative without inflating it to the point where every candidate
  // falls through to the slow path.
  //
  // The bound is floored at n * DBL_MIN (smallest normal): a line whose
  // usable cells are all exactly zero — or all denormal, where the
  // proportional term itself underflows — would otherwise publish a bound of
  // exactly 0, and a screen treating "0 slack" as "the prefix sum is exact"
  // would certain-miss reject legitimate zero-sum aggregates the moment any
  // future term picks up sub-DBL_MIN rounding. The floor makes the
  // never-exactly-zero contract explicit instead of incidental; it is far
  // below any error-level threshold, so it cannot cost a rejection the
  // proportional bound would have made.
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr double kDriftFloor = std::numeric_limits<double>::min();
  prefix_.push_back(0.0);
  prefix_abs_.push_back(0.0);
  drift_.push_back(0.0);
  double running = 0.0;
  double running_abs = 0.0;
  for (int col = 0; col < columns; ++col) {
    if (!active[static_cast<size_t>(col)]) continue;
    if (!view.IsRangeUsable(line, col)) continue;
    const double value = view.value(line, col);
    pos_of_col_[static_cast<size_t>(col)] = static_cast<int>(cols_.size());
    cols_.push_back(col);
    values_.push_back(value);
    numeric_.push_back(view.IsNumeric(line, col) ? 1 : 0);
    running += value;
    running_abs += std::fabs(value);
    prefix_.push_back(running);
    prefix_abs_.push_back(running_abs);
    const double n = static_cast<double>(values_.size());
    const double proportional = kEps * (1.25 * n + 8.0) * 2.0 * running_abs;
    const double floored = kDriftFloor * n;
    drift_.push_back(proportional > floored ? proportional : floored);
  }
}

double LineIndex::CompensatedSum(int begin, int end, bool reverse) const {
  KahanAccumulator accumulator;
  if (reverse) {
    for (int pos = end - 1; pos >= begin; --pos) {
      accumulator.Add(values_[static_cast<size_t>(pos)]);
    }
  } else {
    for (int pos = begin; pos < end; ++pos) {
      accumulator.Add(values_[static_cast<size_t>(pos)]);
    }
  }
  return accumulator.Total();
}

void LineIndex::BuildMinMaxTable(const std::vector<double>& source,
                                 std::vector<double>& mins,
                                 std::vector<double>& maxs) {
  // Standard sparse table, flattened level-major with stride n:
  // mins[l * n + i] = min over source[i, i + 2^l) (clamped to n).
  // Build is O(n log n) once per line; each query is then two loads and a
  // compare. Buffers are reused across lines, so after the first (largest)
  // line of a scan no further allocation happens.
  const size_t n = source.size();
  if (n == 0) return;
  const int levels = SpanLevel(static_cast<int>(n)) + 1;
  mins.resize(static_cast<size_t>(levels) * n);
  maxs.resize(static_cast<size_t>(levels) * n);
  for (size_t i = 0; i < n; ++i) {
    mins[i] = source[i];
    maxs[i] = source[i];
  }
  for (int level = 1; level < levels; ++level) {
    const size_t row = static_cast<size_t>(level) * n;
    const size_t prev = row - n;
    const size_t half = size_t{1} << (level - 1);
    for (size_t i = 0; i < n; ++i) {
      const size_t j = i + half < n ? i + half : n - 1;
      mins[row + i] = MinOf(mins[prev + i], mins[prev + j]);
      maxs[row + i] = MaxOf(maxs[prev + i], maxs[prev + j]);
    }
  }
}

bool LineIndex::BuildPrefixBounds() {
  if (!std::isfinite(prefix_.back())) return false;
  BuildMinMaxTable(prefix_, prefix_min_, prefix_max_);
  return true;
}

}  // namespace aggrecol::core
