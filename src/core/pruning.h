#ifndef AGGRECOL_CORE_PRUNING_H_
#define AGGRECOL_CORE_PRUNING_H_

#include <vector>

#include "core/aggregation.h"
#include "numfmt/axis_view.h"

namespace aggrecol::core {

/// Side of a range relative to its aggregate.
enum class RangeSide { kLeft, kRight, kMixed };

/// A group of aggregation candidates sharing one pattern (Sec. 3.1).
///
/// GroupByPattern also precomputes everything the stage-1/stage-2 ranking and
/// conflict walks would otherwise rederive per pairwise comparison — the
/// range in sorted order (for binary-search membership and two-pointer
/// overlap), the range's side, and the division ratio preference — turning
/// each predicate evaluation in the O(groups^2) walks from a linear rescan of
/// members or range cells into O(log k) lookups over shared immutable state.
struct PatternGroup {
  Pattern pattern;
  std::vector<Aggregation> members;
  /// |members| / number of numeric cells in the aggregate's column.
  double sufficiency = 0.0;
  /// Mean observed error level of the members (rank tie-break).
  double mean_error = 0.0;
  /// `pattern.range` sorted ascending — set semantics for the inclusion and
  /// overlap predicates, which are order-independent by definition.
  std::vector<int> sorted_range;
  /// SideOf(pattern), precomputed.
  RangeSide side = RangeSide::kRight;
  /// Fraction of members whose observed aggregate is ratio-like (in (-1, 1),
  /// nonzero); computed for division groups only, 0 otherwise. Drives the
  /// part-of-whole rank preference of Sec. 3.2.
  double ratio_fraction = 0.0;
};

/// The sufficiency score of a pattern group (Sec. 3.1): its member count
/// over the number of numeric cells in its aggregate's column, or 0 when
/// that column holds none. The one expression rule R1 compares against the
/// coverage threshold.
inline double Sufficiency(size_t members, int numeric_in_column) {
  return numeric_in_column > 0
             ? static_cast<double>(members) / numeric_in_column
             : 0.0;
}

/// Groups `candidates` by pattern and computes sufficiency scores against
/// `grid` (the denominator counts numeric cells in the aggregate's column),
/// along with the precomputed predicate state described on PatternGroup.
/// Groups come in Pattern order and members in input order (OrderByPattern).
/// This form copies the candidates once and groups the copies.
std::vector<PatternGroup> GroupByPattern(const numfmt::AxisView& grid,
                                         const std::vector<Aggregation>& candidates);

/// The same grouping, moving each candidate into its group; the stage-1
/// prune calls this form.
std::vector<PatternGroup> GroupByPattern(const numfmt::AxisView& grid,
                                         std::vector<Aggregation>&& candidates);

/// Side of `pattern`'s range relative to its aggregate.
RangeSide SideOf(const Pattern& pattern);

/// Directional disagreement (Sec. 3.1): same-function candidates sharing the
/// same aggregate must grow their ranges toward the same side.
bool DirectionalDisagreement(const Pattern& a, const Pattern& b);

/// Complete inclusion (Sec. 3.1): the aggregate and part of the range of one
/// pattern are both contained in the range of the other — range elements
/// should be semantic peers, so one cannot aggregate its fellows.
bool CompleteInclusion(const Pattern& a, const Pattern& b);

/// Mutual inclusion (Sec. 3.1): each pattern's aggregate lies in the other's
/// range, a circular calculation that cannot be semantically correct.
bool MutualInclusion(const Pattern& a, const Pattern& b);

/// Same aggregate with (partly) shared range (Sec. 3.2): a cell acting as the
/// aggregate of one function should not aggregate an overlapping range with
/// another.
bool SameAggregateOverlappingRange(const Pattern& a, const Pattern& b);

/// PatternGroup overloads of the four conflict predicates: identical boolean
/// results to the Pattern forms above (the predicates are set-membership
/// questions, so evaluating them over the precomputed sorted ranges and sides
/// cannot change an answer), but O(log k) / two-pointer instead of nested
/// linear scans. The stage-1 and stage-2 conflict walks call these; the
/// Pattern forms are retained as the differential oracles.
bool DirectionalDisagreement(const PatternGroup& a, const PatternGroup& b);
bool CompleteInclusion(const PatternGroup& a, const PatternGroup& b);
bool MutualInclusion(const PatternGroup& a, const PatternGroup& b);
bool SameAggregateOverlappingRange(const PatternGroup& a, const PatternGroup& b);

/// Toggles for the stage-1 pruning steps; used by the ablation experiments
/// (bench/ablation_pruning_rules) to quantify each rule's contribution. All
/// rules are on by default, which is the paper's configuration.
struct PruningRules {
  bool coverage_threshold = true;
  bool same_aggregate_dedup = true;
  bool same_range_dedup = true;
  bool directional_disagreement = true;
  bool complete_inclusion = true;
  bool mutual_inclusion = true;
};

/// Pattern groups a caller removed before pruning because rule R1 would
/// drop them (ExtendThroughLedger's coverage drop). PruneIndividual counts
/// them in its input and R1 accounting exactly as if they had been passed
/// in, so the prune.* counters do not depend on where R1 was applied.
struct PrunedUpstream {
  size_t groups = 0;
  size_t candidates = 0;
};

/// Stage-1 pruning (Alg. 1, line 11) applied to same-function candidates:
///  1. discard groups whose sufficiency score is below `coverage`;
///  2. among groups sharing an aggregate, keep only the best-scoring ones;
///     likewise for groups sharing a range;
///  3. rank the survivors (more members first, then smaller mean error) and
///     greedily drop lower-ranked groups whose patterns cannot co-exist with
///     an accepted one per the three heuristics above.
/// Returns the aggregations of the accepted groups, moved out of
/// `candidates` (taken by value: a caller that is done with its candidates
/// moves them in, and none is copied on the way). `rules` disables
/// individual steps for ablation; `upstream` adds groups R1 already
/// dropped to the counters.
std::vector<Aggregation> PruneIndividual(const numfmt::AxisView& grid,
                                         std::vector<Aggregation> candidates,
                                         double coverage,
                                         const PruningRules& rules = {},
                                         const PrunedUpstream& upstream = {});

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_PRUNING_H_
