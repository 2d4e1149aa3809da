#ifndef AGGRECOL_CORE_WINDOW_STRATEGY_H_
#define AGGRECOL_CORE_WINDOW_STRATEGY_H_

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
/// This implementation compacts the row once into a LineIndex before the
/// quadratic pair loops; DetectWindowPairwiseNaive retains the raw-view scan
/// for the differential test and the stage-1 benchmark. Both emit identical
/// candidates.
std::vector<Aggregation> DetectWindowPairwise(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level, int window_size);

/// The same scan for a caller that scans many rows: `index` is the caller's
/// scratch, rebuilt for `row` with its buffers reused, and the row's
/// aggregations are appended to `out` (mirror suppression only looks at the
/// appended ones). The form above is this one with a fresh index and output.
void DetectWindowPairwise(const numfmt::AxisView& view,
                          const std::vector<bool>& active_columns, int row,
                          AggregationFunction function, double error_level,
                          int window_size, LineIndex& index,
                          std::vector<Aggregation>& out);

/// The retained reference implementation: per-aggregate window collection on
/// the raw view. Applies the same mirror suppression.
std::vector<Aggregation> DetectWindowPairwiseNaive(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level, int window_size);

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_WINDOW_STRATEGY_H_
