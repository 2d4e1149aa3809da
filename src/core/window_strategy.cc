#include "core/window_strategy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <utility>

#include "core/line_index.h"
#include "core/pair_screen.h"

namespace aggrecol::core {
namespace {

// Collects the `window_size` active, range-usable columns closest to
// `aggregate_col` in direction `step` (raw-view reference path).
std::vector<int> CollectWindow(const numfmt::AxisView& view,
                               const std::vector<bool>& active_columns, int row,
                               int aggregate_col, int step, int window_size) {
  std::vector<int> window;
  for (int col = aggregate_col + step;
       col >= 0 && col < view.columns() &&
       static_cast<int>(window.size()) < window_size;
       col += step) {
    if (!active_columns[col]) continue;
    if (!view.IsRangeUsable(row, col)) continue;
    window.push_back(col);
  }
  return window;
}

// Keep-first suppression of candidates whose canonical forms collide, over
// the row's candidates found[first, end). For difference, A = B - C
// (aggregate A) and its mirror C = B - A (aggregate C) both canonicalize to
// the sum B = A + C; the later one in scan order is the mirror and is
// dropped. Within one row and function two candidates share a canonical
// form exactly when they share the integer key (B, min(A, C), max(A, C)), so
// the suppression compares keys and never builds a canonical copy. Division
// and relative change are their own canonical forms, and a row never emits
// the same (aggregate, B, C) twice, so for them this is a no-op.
void SuppressCanonicalMirrors(std::vector<Aggregation>& found, size_t first) {
  if (found.size() - first < 2 ||
      found[first].function != AggregationFunction::kDifference) {
    return;
  }
  struct Entry {
    std::array<int, 3> key;
    size_t at;  // position in `found`; the tie-break keeps scan order
    bool operator<(const Entry& other) const {
      return key != other.key ? key < other.key : at < other.at;
    }
  };
  std::vector<Entry> entries;
  entries.reserve(found.size() - first);
  for (size_t at = first; at < found.size(); ++at) {
    const Aggregation& aggregation = found[at];
    const int a = aggregation.aggregate;
    const int c = aggregation.range[1];
    entries.push_back({{aggregation.range[0], std::min(a, c), std::max(a, c)}, at});
  }
  std::sort(entries.begin(), entries.end());
  std::vector<bool> keep(found.size() - first, false);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].key != entries[i - 1].key) {
      keep[entries[i].at - first] = true;
    }
  }
  size_t write = first;
  for (size_t read = first; read < found.size(); ++read) {
    if (!keep[read - first]) continue;
    if (write != read) found[write] = std::move(found[read]);
    ++write;
  }
  found.erase(found.begin() + static_cast<std::ptrdiff_t>(write), found.end());
}

constexpr double kEps = PairScreenTerms::kEps;
constexpr double kUnderflowSlack = PairScreenTerms::kUnderflowSlack;
// The window and row bounds' inflation: one extra kInflate's worth of
// headroom over the per-pair screens (pair_screen.h) whose decisions they
// have to dominate.
constexpr double kInflateBound = 1.0 + 64.0 * kEps;

// The shared tail of the window and row bounds: true when 0 lies farther
// than `rhs` from the interval [g_lo - margin, g_hi + margin]. A NaN term
// fails every comparison and returns false. The callers' margins sum the
// magnitudes of the terms they bound, so a term that overflows (an obs*c
// product, say) makes the margin infinite and the interval all-covering or
// NaN: an overflow, too, leaves the pairs to the per-pair screens.
bool CertainMiss(double g_lo, double g_hi, double margin, double rhs) {
  const double widened_lo = g_lo - margin;
  const double widened_hi = g_hi + margin;
  double distance = 0.0;
  if (widened_lo > 0.0) {
    distance = widened_lo;
  } else if (widened_hi < 0.0) {
    distance = -widened_hi;
  } else {
    return false;  // 0 is reachable: some pair may pass its screen
  }
  return distance > rhs;
}

// O(1) certain-miss rejection of one *whole* window against the aggregate
// `observed`, from the window's value range [wmin, wmax]: returns true only
// when every ordered pair (b, c) drawn from the window would be rejected by
// the per-pair screens (pair_screen.h), in which case the window's rows are
// skipped outright. Each screen's left-hand side g is *linear* in (b, c), so
// its exact range over the window box [wmin, wmax]^2 is spanned by the four
// corner evaluations; `margin` widens that interval by more than the
// evaluation rounding of any individual pair (relative, plus an absolute
// kUnderflowSlack for terms below the normal range), and the per-pair
// right-hand side is replaced by its window-wide maximum. Batch rejection therefore
// implies per-pair rejection for every pair — it can never suppress an
// emission. (The screens' underflow term is bounded the same way, at the
// largest divisor magnitude.)
//
// Division and relative change refuse to batch-reject when the window's
// value range spans zero (wmin <= 0 <= wmax): zero and ±denormal divisors
// sit exactly on that boundary, so those windows go on to the row gate
// below and the per-pair screens (which skip b == 0 / c == 0 exactly like
// the reference).
bool RejectWholeWindow(double wmin, double wmax, AggregationFunction function,
                       double observed, double threshold) {
  const double span = wmax - wmin;
  const double abs_max = std::max(std::fabs(wmin), std::fabs(wmax));
  const double abs_obs = std::fabs(observed);
  double g_lo = 0.0;
  double g_hi = 0.0;
  double margin = 0.0;
  double rhs = 0.0;
  switch (function) {
    case AggregationFunction::kDifference: {
      // Pair term g = (b - c) - obs; b - c ranges over [-span, span].
      g_lo = -span - observed;
      g_hi = span - observed;
      margin = kEps * 4.0 * (span + abs_obs) + kUnderflowSlack;
      rhs = (threshold + kEps * span) * kInflateBound;
      break;
    }
    case AggregationFunction::kDivision: {
      if (wmin <= 0.0 && wmax >= 0.0) return false;  // divisor range spans 0
      // Pair term g = b - obs*c; per-pair RHS thr*|c| + eps*|obs*c| is
      // bounded by its value at |c| = abs_max.
      const double c1 = observed * wmin;
      const double c2 = observed * wmax;
      g_lo = std::min(std::min(wmin - c1, wmin - c2),
                      std::min(wmax - c1, wmax - c2));
      g_hi = std::max(std::max(wmin - c1, wmin - c2),
                      std::max(wmax - c1, wmax - c2));
      margin = kEps * 4.0 * (1.0 + abs_obs) * abs_max + kUnderflowSlack;
      rhs = (threshold * abs_max + kEps * abs_obs * abs_max +
             kUnderflowSlack * (1.0 + abs_max)) *
            kInflateBound;
      break;
    }
    case AggregationFunction::kRelativeChange: {
      if (wmin <= 0.0 && wmax >= 0.0) return false;  // divisor range spans 0
      // Pair term g = (c - b) - obs*b = c - (1 + obs)*b.
      const double t = 1.0 + observed;
      const double b1 = t * wmin;
      const double b2 = t * wmax;
      g_lo = std::min(std::min(wmin - b1, wmin - b2),
                      std::min(wmax - b1, wmax - b2));
      g_hi = std::max(std::max(wmin - b1, wmin - b2),
                      std::max(wmax - b1, wmax - b2));
      margin =
          kEps * 4.0 * (span + (1.0 + abs_obs) * abs_max) + kUnderflowSlack;
      rhs = (threshold * abs_max + kEps * (span + abs_obs * abs_max) +
             kUnderflowSlack * (1.0 + abs_max)) *
            kInflateBound;
      break;
    }
    default:
      return false;  // commutative functions never reach the window scan
  }
  return CertainMiss(g_lo, g_hi, margin, rhs);
}

// O(1) certain-miss gate of one window row: true only when no pair (b, c)
// with c drawn from the window — whose values lie in [wmin, wmax] — can pass
// its per-pair screen, so the row's O(width) pair work is skipped.
//
// With b fixed, each screen's left-hand side g is linear in c, so its exact
// range over [wmin, wmax] is spanned by the two endpoint evaluations, and
// every operand of the per-pair right-hand side is largest at an endpoint.
// Rounded arithmetic is monotone in each operand, so the rounded per-pair
// values lie between the rounded endpoint values as well. On top of that,
// `margin` widens the interval by more than the evaluation rounding of any
// one pair (relative, plus kUnderflowSlack below the normal range), which
// covers a build that fuses a product into a subtraction. The per-pair
// right-hand side is replaced by its maximum over the window, inflated once
// more. The gate therefore only ever proves misses: it can
// never suppress an emission, so candidate order (and the mirrored
// difference keep-first suppression that depends on it) is untouched.
// Including b's own value in [wmin, wmax] only widens the range.
//
// The multiplied-through forms are linear in c whatever the signs, so the
// gate also decides windows whose values straddle zero; a zero divisor is a
// pair the per-pair screens skip, which the bound covers as well.
bool RowCertainMiss(AggregationFunction function, double b, double wmin,
                    double wmax, double observed, double threshold) {
  const double abs_obs = std::fabs(observed);
  double g_lo = 0.0;
  double g_hi = 0.0;
  double margin = 0.0;
  double rhs = 0.0;
  switch (function) {
    case AggregationFunction::kDifference: {
      // g = (b - c) - obs; the screen's |diff| is at most `reach`.
      const double near = b - wmax;
      const double far = b - wmin;
      const double reach = std::max(std::fabs(near), std::fabs(far));
      g_lo = near - observed;
      g_hi = far - observed;
      margin = kEps * 4.0 * (reach + abs_obs) + kUnderflowSlack;
      rhs = (threshold + kEps * reach) * kInflateBound;
      break;
    }
    case AggregationFunction::kDivision: {
      // g = b - obs*c; |c| <= abs_c and |obs*c| <= abs_obs * abs_c.
      const double abs_c = std::max(std::fabs(wmin), std::fabs(wmax));
      const double at_min = b - observed * wmin;
      const double at_max = b - observed * wmax;
      g_lo = std::min(at_min, at_max);
      g_hi = std::max(at_min, at_max);
      margin =
          kEps * 4.0 * (std::fabs(b) + abs_obs * abs_c) + kUnderflowSlack;
      rhs = (threshold * abs_c + kEps * abs_obs * abs_c +
             kUnderflowSlack * (1.0 + abs_c)) *
            kInflateBound;
      break;
    }
    case AggregationFunction::kRelativeChange: {
      if (b == 0.0) return true;  // the reference skips every pair of this row
      // g = (c - b) - obs*b; the screen's |diff| is at most `reach`.
      const double target = observed * b;
      const double low = wmin - b;
      const double high = wmax - b;
      const double reach = std::max(std::fabs(low), std::fabs(high));
      g_lo = low - target;
      g_hi = high - target;
      margin = kEps * 4.0 * (reach + std::fabs(target)) + kUnderflowSlack;
      rhs = (threshold * std::fabs(b) + kEps * (reach + std::fabs(target)) +
             kUnderflowSlack * (1.0 + std::fabs(b))) *
            kInflateBound;
      break;
    }
    default:
      return false;  // commutative functions never reach the window scan
  }
  return CertainMiss(g_lo, g_hi, margin, rhs);
}

// Tests every ordered pair of each side's window against the aggregate at
// compact position `pos` of `index`, in (bi, ci) order: bi and ci count
// positions away from the aggregate. A window RejectWholeWindow clears is
// skipped whole; otherwise each window row (one bi) is gated by
// RowCertainMiss; a surviving row runs `Screen` over all of its c
// without a branch and reduces it to one any-hit flag; only a row with a
// hit replays the per-pair screen and the exact ApplyPairwise + ErrorLevel
// decision, pair by pair, exactly as the unscreened loop would.
template <typename Screen>
void TestWindows(const LineIndex& index, int row, int pos,
                 AggregationFunction function, double error_level,
                 int window_size, std::vector<Aggregation>& found,
                 WindowScanCounts& counts) {
  const double observed = index.value(pos);
  const double threshold = (error_level + kErrorSlack) *
                           (observed != 0.0 ? std::fabs(observed) : 1.0);
  for (int step : {+1, -1}) {
    // The window in compact space: the nearest usable positions on one side.
    const int available = step > 0 ? index.size() - 1 - pos : pos;
    const int width = std::min(window_size, available);
    if (width < 2) continue;  // no ordered pair of distinct cells
    const int window_lo = step > 0 ? pos + 1 : pos - width;
    const int window_hi = step > 0 ? pos + 1 + width : pos;
    double wmin = index.value(window_lo);
    double wmax = wmin;
    for (int p = window_lo + 1; p < window_hi; ++p) {
      wmin = std::min(wmin, index.value(p));
      wmax = std::max(wmax, index.value(p));
    }
    if (RejectWholeWindow(wmin, wmax, function, observed, threshold)) {
      ++counts.windows_rejected;
      continue;  // every pair in this window is a certain miss
    }
    for (int bi = 1; bi <= width; ++bi) {
      const int b_pos = pos + step * bi;
      const double b = index.value(b_pos);
      if (RowCertainMiss(function, b, wmin, wmax, observed, threshold)) {
        ++counts.rows_gated;
        continue;
      }
      ++counts.rows_screened;
      bool any_hit = false;
      for (int p = window_lo; p < window_hi; ++p) {
        any_hit |= (p != b_pos) &
                   Screen::MayHit(b, index.value(p), observed, threshold);
      }
      if (!any_hit) continue;
      ++counts.rows_replayed;
      for (int ci = 1; ci <= width; ++ci) {
        if (bi == ci) continue;
        const int c_pos = pos + step * ci;
        const double c = index.value(c_pos);
        if (!Screen::MayHit(b, c, observed, threshold)) continue;
        const auto calculated = ApplyPairwise(function, b, c);
        if (!calculated.has_value()) continue;
        const double error = ErrorLevel(observed, *calculated);
        if (WithinErrorLevel(error, error_level)) {
          Aggregation aggregation;
          aggregation.axis = Axis::kRow;
          aggregation.line = row;
          aggregation.aggregate = index.col(pos);
          aggregation.range = {index.col(b_pos), index.col(c_pos)};
          aggregation.function = function;
          aggregation.error = error;
          found.push_back(std::move(aggregation));
        }
      }
    }
  }
}

template <typename Screen>
void ScanLine(const LineIndex& index, int row, AggregationFunction function,
              double error_level, int window_size,
              std::vector<Aggregation>& out, WindowScanCounts& counts) {
  for (int pos = 0; pos < index.size(); ++pos) {
    if (!index.is_numeric(pos)) continue;
    TestWindows<Screen>(index, row, pos, function, error_level, window_size,
                        out, counts);
  }
}

}  // namespace

std::vector<Aggregation> DetectWindowPairwise(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level, int window_size) {
  std::vector<Aggregation> found;
  LineIndex index;
  WindowScanCounts counts;
  DetectWindowPairwise(view, active_columns, row, function, error_level,
                       window_size, index, found, counts);
  return found;
}

void DetectWindowPairwise(const numfmt::AxisView& view,
                          const std::vector<bool>& active_columns, int row,
                          AggregationFunction function, double error_level,
                          int window_size, LineIndex& index,
                          std::vector<Aggregation>& out,
                          WindowScanCounts& counts) {
  const size_t first = out.size();
  index.Build(view, active_columns, row);
  switch (function) {
    case AggregationFunction::kDifference:
      ScanLine<DifferenceScreen>(index, row, function, error_level, window_size,
                                 out, counts);
      break;
    case AggregationFunction::kDivision:
      ScanLine<DivisionScreen>(index, row, function, error_level, window_size,
                               out, counts);
      break;
    case AggregationFunction::kRelativeChange:
      ScanLine<RelativeChangeScreen>(index, row, function, error_level,
                                     window_size, out, counts);
      break;
    default:
      break;  // commutative functions never reach the window scan
  }
  SuppressCanonicalMirrors(out, first);
}

std::vector<Aggregation> DetectWindowPairwiseNaive(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level, int window_size) {
  std::vector<Aggregation> found;
  for (int j = 0; j < view.columns(); ++j) {
    if (!active_columns[j]) continue;
    if (!view.IsNumeric(row, j)) continue;
    const double observed = view.value(row, j);
    for (int step : {+1, -1}) {
      const std::vector<int> window =
          CollectWindow(view, active_columns, row, j, step, window_size);
      for (int b_col : window) {
        for (int c_col : window) {
          if (b_col == c_col) continue;
          const auto calculated = ApplyPairwise(function, view.value(row, b_col),
                                                view.value(row, c_col));
          if (!calculated.has_value()) continue;
          const double error = ErrorLevel(observed, *calculated);
          if (WithinErrorLevel(error, error_level)) {
            Aggregation aggregation;
            aggregation.axis = Axis::kRow;
            aggregation.line = row;
            aggregation.aggregate = j;
            aggregation.range = {b_col, c_col};
            aggregation.function = function;
            aggregation.error = error;
            found.push_back(std::move(aggregation));
          }
        }
      }
    }
  }
  SuppressCanonicalMirrors(found, 0);
  return found;
}

}  // namespace aggrecol::core
