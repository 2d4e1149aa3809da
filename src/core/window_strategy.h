#ifndef AGGRECOL_CORE_WINDOW_STRATEGY_H_
#define AGGRECOL_CORE_WINDOW_STRATEGY_H_

#include <cstdint>
#include <vector>

#include "core/aggregation.h"
#include "core/line_index.h"
#include "numfmt/axis_view.h"

namespace aggrecol::core {

/// Sliding-window strategy (Sec. 3.1) for non-commutative pairwise functions
/// (difference, division, relative change): for every numeric aggregate
/// candidate in `row`, examine the `window_size` range-usable cells closest
/// to it on each side — each side separately — and test every ordered pair
/// (permutation of size 2) against the candidate. All matches within
/// `error_level` are reported; spurious ones are left to the pruning rules —
/// except mirrored duplicates: when two candidates of the same row collapse
/// to the same canonical form (a difference A = B - C and its mirror
/// C = B - A both canonicalize to the sum B = A + C), only the first in scan
/// order is emitted. The mirror carries no extra evidence, and emitting both
/// double-counted the same arithmetic fact downstream.
///
/// Results are row-wise in the coordinates of `view`; the range is ordered
/// (B, C) per Table 1.
///
/// This implementation compacts the row once into a LineIndex and gates
/// every window, then every window row (one operand b against the whole
/// window), with O(1) certain-miss bounds before any pair is formed; only rows the gate and a
/// branch-free screen cannot clear replay the exact pair test
/// (docs/PERFORMANCE.md, "Window row gate"). DetectWindowPairwiseNaive
/// retains the raw-view scan for the differential test and the stage-1
/// benchmark. Both emit identical candidates, error bits included.
std::vector<Aggregation> DetectWindowPairwise(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level, int window_size);

/// Work counts of the window scan, summed over the window rows it met (a
/// window row is one operand b of one side's window of one aggregate). They
/// depend only on the input, never on timing or thread count, so they serve
/// as host-independent work gates (the window.* obs counters).
struct WindowScanCounts {
  /// Windows the whole-window bound proved to hold no passing pair.
  uint64_t windows_rejected = 0;
  /// Rows of the other windows the O(1) row gate proved to hold none.
  uint64_t rows_gated = 0;
  /// Rows that went through the branch-free per-pair screen.
  uint64_t rows_screened = 0;
  /// Screened rows with a screen hit, replayed pair by pair exactly.
  uint64_t rows_replayed = 0;

  WindowScanCounts& operator+=(const WindowScanCounts& other) {
    windows_rejected += other.windows_rejected;
    rows_gated += other.rows_gated;
    rows_screened += other.rows_screened;
    rows_replayed += other.rows_replayed;
    return *this;
  }
};

/// The same scan for a caller that scans many rows: `index` is the caller's
/// scratch, rebuilt for `row` with its buffers reused, the row's
/// aggregations are appended to `out` (mirror suppression only looks at the
/// appended ones), and the scan's work is added to `counts`. The form above
/// is this one with a fresh index, output and counts.
void DetectWindowPairwise(const numfmt::AxisView& view,
                          const std::vector<bool>& active_columns, int row,
                          AggregationFunction function, double error_level,
                          int window_size, LineIndex& index,
                          std::vector<Aggregation>& out, WindowScanCounts& counts);

/// The retained reference implementation: per-aggregate window collection on
/// the raw view. Applies the same mirror suppression.
std::vector<Aggregation> DetectWindowPairwiseNaive(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level, int window_size);

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_WINDOW_STRATEGY_H_
