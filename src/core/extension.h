#ifndef AGGRECOL_CORE_EXTENSION_H_
#define AGGRECOL_CORE_EXTENSION_H_

#include <cstddef>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/aggregation.h"
#include "numfmt/axis_view.h"

namespace aggrecol::core {

/// The rows of a grid on which one pattern validates (the extension check
/// of Alg. 1, line 8, run on every row), ascending, with the error level of
/// each.
struct PatternRows {
  std::vector<int> rows;
  std::vector<double> errors;
};

/// A cache of pattern validations over one grid at one error level: the
/// first extension that meets a pattern validates it on every row and
/// records the result; later extensions of that pattern, under any column
/// mask, read the record instead of validating again.
///
/// That is sound because extension only ever validates a pattern whose
/// aggregate and range columns are all active, and such a pattern's check
/// on a row reads only those cells: the mask decides nothing else, so every
/// mask that keeps the pattern's cells active validates each row
/// identically. The supplemental stage therefore shares one ledger per
/// function across all derived files of a call (Alg. 2), whose masks differ
/// only in removed columns.
///
/// Thread-safe: concurrent derived-file runs look patterns up and record
/// them under one mutex; a record never changes once made, so the rows it
/// hands out are read without the lock. Two runs that miss the same pattern
/// at once both validate it and the second record is dropped — the results
/// are identical, so which one wins never shows.
class PatternLedger {
 public:
  PatternLedger(const numfmt::AxisView& grid, double error_level);
  PatternLedger(const PatternLedger&) = delete;
  PatternLedger& operator=(const PatternLedger&) = delete;

  const numfmt::AxisView& grid() const { return grid_; }

  /// How one lookup batch was served: patterns this batch validated and
  /// recorded first, and patterns read from an earlier record (including
  /// one a concurrent batch recorded first). Summed over all batches,
  /// `validated` is the number of distinct patterns recorded and the two
  /// together the number of lookups, so the totals do not depend on timing.
  struct Lookups {
    size_t validated = 0;
    size_t reused = 0;
  };

  /// The record of each pattern of `patterns` (aggregations read for their
  /// pattern fields only), in the same order, validating the ones not yet
  /// recorded under `active`. Every pattern must be extendable under
  /// `active`: aggregate and range columns active, a non-empty range, and
  /// two range cells for a pairwise function.
  std::vector<const PatternRows*> Find(
      const std::vector<bool>& active,
      const std::vector<const Aggregation*>& patterns, Lookups& lookups);

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(const Pattern& pattern) const;
    size_t operator()(const Aggregation& aggregation) const;
  };
  struct Equal {
    using is_transparent = void;
    bool operator()(const Pattern& a, const Pattern& b) const { return a == b; }
    bool operator()(const Aggregation& a, const Pattern& b) const;
    bool operator()(const Pattern& a, const Aggregation& b) const {
      return (*this)(b, a);
    }
  };

  // aggrecol-lint: allow(L7): a ledger lives inside one detector call over
  // this grid (DetectSupplementalRowwise, or one DetectIndividualRowwise
  // run), which the caller's grid outlives, like every view it is given.
  numfmt::AxisView grid_;
  double error_level_;
  std::mutex mutex_;
  // Node-based: a record's address survives later insertions.
  std::unordered_map<Pattern, PatternRows, Hash, Equal> records_;
};

/// What one extension through a ledger produced.
struct Extension {
  /// The extended candidates, in ExtendAggregations' order.
  std::vector<Aggregation> candidates;
  /// Pattern groups (and their members, seeds plus extension rows) dropped
  /// because their sufficiency fails `coverage`; see ExtendThroughLedger.
  size_t dropped_groups = 0;
  size_t dropped_members = 0;
};

/// Aggregation extension (Alg. 1, line 8) through `ledger`: for every
/// pattern among `detected`, the rows of `ledger.grid()` that are not yet
/// covered by one of the pattern's candidates and on which the pattern
/// validates are added. Validity of a pattern in a row requires a numeric
/// aggregate cell, all range cells range-usable and active, a defined
/// function value, and an error level within the ledger's level. This
/// recovers rows where the greedy adjacency search terminated early on a
/// coincidental shorter range (the Figure 5 / Table 2 scenario).
///
/// With `coverage`, a pattern group whose member count after extension —
/// its candidates plus the recorded rows they do not cover, exactly what
/// extension would hand to the pruning — gives a sufficiency (pruning.h)
/// below `coverage` is dropped whole: rule R1 of PruneIndividual would drop
/// it, and R1 runs before anything that looks at other groups, so no other
/// group's fate depends on it. Its seeds leave `candidates` and it adds to
/// the dropped tallies instead.
///
/// Output order: the kept candidates of `detected` first, in input order
/// (taken by value: a caller that is done with its candidates moves them
/// in), then the new aggregations pattern by pattern in Pattern order, rows
/// ascending within each.
Extension ExtendThroughLedger(PatternLedger& ledger,
                              const std::vector<bool>& active_columns,
                              std::vector<Aggregation> detected,
                              std::optional<double> coverage);

/// Extension without a shared ledger or a coverage drop: returns the union
/// of `detected` and the newly validated aggregations, without duplicates —
/// `detected` first and unchanged, the new aggregations after it.
///
/// Validation compacts each row once into a LineIndex shared by every
/// pattern, screens commutative patterns whose range is contiguous in
/// compact space with the O(1) prefix-sum certain-miss test, and screens
/// pairwise patterns with the same division-free bounds as the window
/// kernel; every possible accept replays the exact reference arithmetic, so
/// results are bit-identical to ExtendAggregationsNaive (same aggregations,
/// same order, bit-equal `error`). Pattern sets too small to amortize the
/// per-row compaction run the naive per-row check instead — a cost-model
/// switch, never a semantic one. Patterns are grouped by OrderByPattern.
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
