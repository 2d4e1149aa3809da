#include "core/window_strategy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "core/line_index.h"

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

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kInflate = 1.0 + 32.0 * kEps;
// The batch screen's inflation: one extra kInflate's worth of headroom over
// the per-pair screens whose decisions it has to dominate.
constexpr double kInflateBatch = 1.0 + 64.0 * kEps;

// O(1) certain-miss rejection of one *whole* window [lo, hi) in compact
// space against the aggregate `observed`: returns true only when every
// ordered pair (b, c) drawn from the window would be rejected by the
// per-pair screens in TestWindows, in which case the O(width^2) pair loop is
// skipped outright. Built from the window's min/max value bounds
// (LineIndex::SpanMin/SpanMax — the prefix machinery's range queries):
// each screen's left-hand side g is *linear* in (b, c), so its exact range
// over the window box [wmin, wmax]^2 is spanned by the four corner
// evaluations; `margin` widens that interval by more than the evaluation
// rounding of any individual pair, and the per-pair right-hand side is
// replaced by its window-wide maximum. Batch rejection therefore implies
// per-pair rejection for every pair — it can never suppress an emission, so
// candidate order (and the mirrored-difference keep-first suppression that
// depends on it) is untouched.
//
// Division and relative change refuse to batch-reject when the window's
// value range spans zero (wmin <= 0 <= wmax): a ratio bound derived from
// min/max is invalid once the divisor range crosses 0 — the achievable
// quotients are unbounded on both sides, and zero or ±denormal divisors sit
// exactly on that boundary — so those windows fall through to the per-pair
// screens (which skip b==0 / c==0 exactly like the reference) and their
// exact replays.
bool RejectWholeWindow(const LineIndex& index, int lo, int hi,
                       AggregationFunction function, double observed,
                       double threshold) {
  const double wmin = index.SpanMin(lo, hi);
  const double wmax = index.SpanMax(lo, hi);
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
      margin = kEps * 4.0 * (span + abs_obs);
      rhs = (threshold + kEps * span) * kInflateBatch;
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
      margin = kEps * 4.0 * (1.0 + abs_obs) * abs_max;
      rhs = (threshold * abs_max + kEps * abs_obs * abs_max) * kInflateBatch;
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
      margin = kEps * 4.0 * (span + (1.0 + abs_obs) * abs_max);
      rhs = (threshold * abs_max + kEps * (span + abs_obs * abs_max)) *
            kInflateBatch;
      break;
    }
    default:
      return false;  // commutative functions never reach the window scan
  }
  // Distance from 0 to the widened interval [g_lo - margin, g_hi + margin].
  // NaN/inf corners (overflowing obs*c products) fail both comparisons and
  // fall through to the per-pair path — conservative by construction.
  const double widened_lo = g_lo - margin;
  const double widened_hi = g_hi + margin;
  double distance = 0.0;
  if (widened_lo > 0.0) {
    distance = widened_lo;
  } else if (widened_hi < 0.0) {
    distance = -widened_hi;
  } else {
    return false;  // 0 is achievable: some pair may survive its screen
  }
  return distance > rhs;
}

// Shared pair loop: tests every ordered pair of each side's window against
// the aggregate at compact position `pos` of `index`.
//
// Each side's window is first screened *as a whole* (RejectWholeWindow
// above); a surviving window's pairs are then screened division-free: the
// reference test
//   ErrorLevel(obs, ApplyPairwise(f, b, c)) <= level + slack
// is multiplied through by the pairwise function's denominator, turning it
// into one absolute comparison per pair (no division, no optional, no call).
// The eps terms and kInflate make the screen strictly conservative — it can
// only certify *misses* — so every survivor replays the exact
// ApplyPairwise + ErrorLevel decision and the kernel stays bit-identical to
// the naive scan. (When obs == 0 the reference error is absolute; then
// target = obs * denom = 0 and threshold = level + slack, so the same
// formulas cover both cases without a branch.)
void TestWindows(const LineIndex& index, int row, int pos,
                 AggregationFunction function, double error_level,
                 int window_size, std::vector<Aggregation>& found) {
  const double observed = index.value(pos);
  const double threshold = (error_level + kErrorSlack) *
                           (observed != 0.0 ? std::fabs(observed) : 1.0);
  for (int step : {+1, -1}) {
    // The window in compact space: the nearest usable positions on one side.
    const int available = step > 0 ? index.size() - 1 - pos : pos;
    const int width = std::min(window_size, available);
    if (width >= 2) {
      const int window_lo = step > 0 ? pos + 1 : pos - width;
      const int window_hi = step > 0 ? pos + 1 + width : pos;
      if (RejectWholeWindow(index, window_lo, window_hi, function, observed,
                            threshold)) {
        continue;  // every pair in this window is a certain miss
      }
    }
    for (int bi = 1; bi <= width; ++bi) {
      for (int ci = 1; ci <= width; ++ci) {
        if (bi == ci) continue;
        const int b_pos = pos + step * bi;
        const int c_pos = pos + step * ci;
        const double b = index.value(b_pos);
        const double c = index.value(c_pos);
        switch (function) {
          case AggregationFunction::kDifference: {
            // |(b - c) - obs| > (level + slack) * |obs|  => miss.
            const double diff = b - c;
            if (std::fabs(diff - observed) >
                (threshold + kEps * std::fabs(diff)) * kInflate) {
              continue;
            }
            break;
          }
          case AggregationFunction::kDivision: {
            // b / c vs obs, scaled by |c|: |b - obs*c| > thr*|c|  => miss.
            if (c == 0.0) continue;  // reference skips the pair entirely
            const double target = observed * c;
            if (std::fabs(b - target) >
                (threshold * std::fabs(c) + kEps * std::fabs(target)) *
                    kInflate) {
              continue;
            }
            break;
          }
          case AggregationFunction::kRelativeChange: {
            // (c - b) / b vs obs, scaled by |b|: |(c-b) - obs*b| > thr*|b|.
            if (b == 0.0) continue;  // reference skips the pair entirely
            const double diff = c - b;
            const double target = observed * b;
            if (std::fabs(diff - target) >
                (threshold * std::fabs(b) +
                 kEps * (std::fabs(diff) + std::fabs(target))) *
                    kInflate) {
              continue;
            }
            break;
          }
          default:
            break;  // commutative functions never reach the window scan
        }
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

}  // namespace

std::vector<Aggregation> DetectWindowPairwise(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level, int window_size) {
  std::vector<Aggregation> found;
  LineIndex index;
  DetectWindowPairwise(view, active_columns, row, function, error_level,
                       window_size, index, found);
  return found;
}

void DetectWindowPairwise(const numfmt::AxisView& view,
                          const std::vector<bool>& active_columns, int row,
                          AggregationFunction function, double error_level,
                          int window_size, LineIndex& index,
                          std::vector<Aggregation>& out) {
  const size_t first = out.size();
  index.Build(view, active_columns, row);
  index.BuildSpanBounds();  // the batch screen's O(1) window min/max
  for (int pos = 0; pos < index.size(); ++pos) {
    if (!index.is_numeric(pos)) continue;
    TestWindows(index, row, pos, function, error_level, window_size, out);
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
