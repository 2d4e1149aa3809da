#ifndef AGGRECOL_CORE_EXTENSION_H_
#define AGGRECOL_CORE_EXTENSION_H_

#include <vector>

#include "core/aggregation.h"
#include "numfmt/axis_view.h"

namespace aggrecol::core {

/// Aggregation extension (Alg. 1, line 8): for every pattern among the
/// detected aggregations, check whether candidates with the same pattern in
/// the *other* rows are also valid aggregations, and add the ones that are.
/// This recovers rows where the greedy adjacency search terminated early on a
/// coincidental shorter range (the Figure 5 / Table 2 scenario).
///
/// Validity of a pattern in a row requires a numeric aggregate cell, all
/// range cells range-usable and active, a defined function value, and an
/// error level within `error_level`. Returns the union of `detected` and the
/// newly validated aggregations, without duplicates: `detected` (taken by
/// value, so a caller that is done with its candidates moves them in) comes
/// first and unchanged, the new aggregations follow.
///
/// This implementation compacts each candidate row once into a LineIndex
/// shared by every pattern, screens commutative patterns whose range is
/// contiguous in compact space with the O(1) prefix-sum certain-miss test,
/// and screens pairwise patterns with the same division-free bounds as the
/// window kernel; every possible accept replays the exact reference
/// arithmetic, so results are bit-identical to ExtendAggregationsNaive
/// (same aggregations, same order, bit-equal `error`). Pattern sets too
/// small to amortize the per-row compaction run the naive per-row check
/// instead — a cost-model switch, never a semantic one. Patterns are grouped
/// by OrderByPattern.
std::vector<Aggregation> ExtendAggregations(const numfmt::AxisView& grid,
                                            const std::vector<bool>& active_columns,
                                            std::vector<Aggregation> detected,
                                            double error_level);

/// The retained reference implementation: the original per-(pattern, row)
/// walk over the raw view. Kept for the differential battery and the
/// extension benchmark; the pipeline runs the screened version above.
std::vector<Aggregation> ExtendAggregationsNaive(
    const numfmt::AxisView& grid, const std::vector<bool>& active_columns,
    const std::vector<Aggregation>& detected, double error_level);

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_EXTENSION_H_
