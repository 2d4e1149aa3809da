#ifndef AGGRECOL_CORE_AGGREGATION_H_
#define AGGRECOL_CORE_AGGREGATION_H_

#include <string>
#include <vector>

#include "core/function.h"

namespace aggrecol::core {

/// Orientation of a same-line aggregation (Sec. 2.1): aggregate and range
/// share a row (kRow) or a column (kColumn).
enum class Axis { kRow, kColumn };

/// Short name: "row" or "column".
std::string ToString(Axis axis);

/// Error level of an aggregation (Definition 5): the deviation factor of the
/// computed value `calculated` from the observed aggregate `observed`,
/// normalized by the observed value; the absolute difference when the
/// observed value is zero.
double ErrorLevel(double observed, double calculated);

/// Absolute slack added to every error-level comparison so that binary
/// floating-point noise (re-parsing decimal cell values, re-associating
/// sums) cannot break an exact (e = 0) match.
inline constexpr double kErrorSlack = 1e-9;

/// True when an observed `error` is within the configured `level`, allowing
/// for kErrorSlack of floating-point noise.
inline bool WithinErrorLevel(double error, double level) {
  return error <= level + kErrorSlack;
}

/// A detected or annotated aggregation: (r <- E, f, e) plus its orientation
/// (Definitions 4-5 with the row/column notation of Sec. 2.1).
///
/// For a row-wise aggregation, `line` is the shared row index, `aggregate`
/// the column index of the aggregate cell, and `range` the column indices of
/// the range elements — ordered for non-commutative functions (B first, then
/// C per Table 1), ascending for commutative ones. Column-wise aggregations
/// swap the roles of rows and columns.
struct Aggregation {
  Axis axis = Axis::kRow;
  int line = 0;
  int aggregate = 0;
  std::vector<int> range;
  AggregationFunction function = AggregationFunction::kSum;
  double error = 0.0;

  /// Identity ignores the observed error (two detections of the same cells
  /// and function are the same aggregation).
  friend bool operator==(const Aggregation& a, const Aggregation& b) {
    return a.axis == b.axis && a.line == b.line && a.aggregate == b.aggregate &&
           a.function == b.function && a.range == b.range;
  }
};

/// Notation of Sec. 2.1, e.g. "(row:2, 1 <- {2, 3, 4}, sum, e=0)".
std::string ToString(const Aggregation& aggregation);

/// The pattern j_r <- j_E of an aggregation (Sec. 2.1): its scope without the
/// line index. Stage-1 extension and all pruning rules group by pattern.
struct Pattern {
  Axis axis = Axis::kRow;
  int aggregate = 0;
  std::vector<int> range;
  AggregationFunction function = AggregationFunction::kSum;

  friend bool operator==(const Pattern&, const Pattern&) = default;
  friend auto operator<=>(const Pattern&, const Pattern&) = default;
};

/// The pattern of `aggregation`.
Pattern PatternOf(const Aggregation& aggregation);

/// e.g. "sum: 1 <- {2, 3, 4}".
std::string ToString(const Pattern& pattern);

/// PatternOf(a) < PatternOf(b), without building either pattern: the same
/// member order (axis, aggregate, range, function) as Pattern's operator<=>.
bool PatternLess(const Aggregation& a, const Aggregation& b);

/// PatternOf(a) == PatternOf(b), without building either pattern.
bool SamePattern(const Aggregation& a, const Aggregation& b);

/// The positions of `aggregations` stably sorted by PatternLess. Candidates
/// sharing a pattern form one contiguous run, the runs come in Pattern order
/// (the iteration order of a std::map<Pattern, ...>), and each run keeps the
/// input order. The one grouping primitive of extension and pruning: it
/// costs one index array instead of a map node and a Pattern copy per
/// candidate.
std::vector<size_t> OrderByPattern(const std::vector<Aggregation>& aggregations);

/// Canonicalizes a difference aggregation A = B - C into its sum form
/// B = A + C (Sec. 4.3.2 merges sum and difference this way for evaluation).
/// Non-difference aggregations are returned unchanged; commutative ranges are
/// sorted ascending so set comparison is positional.
Aggregation Canonicalize(const Aggregation& aggregation);

/// Strict weak ordering over aggregation identity (axis, line, aggregate,
/// function, range); error is ignored, matching operator==. Enables sorted
/// deduplication and set membership for large result sets (the eager
/// baseline can produce millions of candidates).
bool AggregationLess(const Aggregation& a, const Aggregation& b);

/// The positions of `aggregations` sorted by AggregationLess: a membership
/// index over a result set that is neither copied nor reordered.
std::vector<size_t> OrderByIdentity(const std::vector<Aggregation>& aggregations);

/// True when `aggregations` holds an aggregation equal to `wanted`, by binary
/// search over `order` = OrderByIdentity(aggregations).
bool ContainsIdentity(const std::vector<Aggregation>& aggregations,
                      const std::vector<size_t>& order, const Aggregation& wanted);

/// Canonicalizes and deduplicates a whole result set. The result is sorted
/// by AggregationLess.
std::vector<Aggregation> CanonicalizeAll(const std::vector<Aggregation>& aggregations);

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_AGGREGATION_H_
