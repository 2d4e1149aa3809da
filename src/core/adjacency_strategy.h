#ifndef AGGRECOL_CORE_ADJACENCY_STRATEGY_H_
#define AGGRECOL_CORE_ADJACENCY_STRATEGY_H_

#include <vector>

#include "core/aggregation.h"
#include "core/line_index.h"
#include "numfmt/axis_view.h"

namespace aggrecol::core {

/// Blocks of at most this many range sizes are screened one size at a time
/// by DetectAdjacentCommutative; larger blocks are tested whole and bisected.
/// A line with no more usable cells never builds the prefix min/max table.
/// A fixed constant, not a tuning option; public so tests can place lines at
/// the boundary.
inline constexpr int kAdjacencyLeafSizes = 32;

/// Adjacency-list strategy (Sec. 3.1) for commutative functions (sum,
/// average): for every numeric aggregate candidate in `row`, grow an
/// adjacency list of the closest range-usable cells on each side — skipping
/// text cells and inactive columns — and report the first list whose
/// aggregated value matches the candidate within `error_level`. The search of
/// a side stops greedily at the first match (the extension step later
/// recovers longer true ranges; cf. the Figure 5 discussion).
///
/// `active_columns` masks columns logically removed by the cumulative
/// iteration of Alg. 1 or by the supplemental stage's constructed files.
/// Results are row-wise in the coordinates of `view`.
///
/// This is the prefix-sum kernel: the row is compacted once into a LineIndex,
/// each candidate range sum becomes a O(1) prefix subtraction, and only
/// candidates the conservative rounding bound cannot reject fall back to the
/// compensated per-element walk. On a line longer than kAdjacencyLeafSizes
/// usable cells, the range sizes of each search are bisected: a block of
/// sizes whose prefix-sum bounds cannot contain an accept is skipped whole
/// (docs/PERFORMANCE.md, "Long lines"). Detection decisions and reported
/// error levels are bit-identical to DetectAdjacentCommutativeNaive (enforced
/// by tests/stage1_kernel_test.cc).
std::vector<Aggregation> DetectAdjacentCommutative(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level);

/// The same scan for a caller that scans many rows: `index` is the caller's
/// scratch, rebuilt for `row` with its buffers reused, and the row's
/// aggregations are appended to `out`. The form above is this one with a
/// fresh index and output.
void DetectAdjacentCommutative(const numfmt::AxisView& view,
                               const std::vector<bool>& active_columns, int row,
                               AggregationFunction function, double error_level,
                               LineIndex& index, std::vector<Aggregation>& out);

/// The retained reference implementation: the original per-candidate walk
/// over the raw view, summing with Kahan compensation. Kept for the
/// differential test and the stage-1 benchmark; the pipeline runs the kernel.
std::vector<Aggregation> DetectAdjacentCommutativeNaive(
    const numfmt::AxisView& view, const std::vector<bool>& active_columns,
    int row, AggregationFunction function, double error_level);

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_ADJACENCY_STRATEGY_H_
