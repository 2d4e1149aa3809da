#ifndef AGGRECOL_CORE_LINE_INDEX_H_
#define AGGRECOL_CORE_LINE_INDEX_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "numfmt/axis_view.h"

namespace aggrecol::core {

/// Per-line scratch index for the stage-1 hot loops: the numeric-run index
/// plus prefix sums of one grid line.
///
/// The naive scans walk the raw grid once per aggregate candidate, paying the
/// active-mask branch, the CellKind branch, and (on the column axis) a strided
/// load for every cell they merely skip. Build() pays those costs exactly once
/// per line, compacting the range-usable cells — the adjacency list of
/// Sec. 3.1 — into dense arrays:
///
///   cols[p]     original view column of the p-th usable cell
///   value(p)    its numeric value
///   is_numeric  whether it may serve as an aggregate
///
/// plus two prefix arrays over the compacted values (`prefix` of the values,
/// `prefix_abs` of their magnitudes), so any candidate range sum is a O(1)
/// subtraction and its worst-case rounding is boundable. Consecutive usable
/// cells are adjacent in compact space, so every adjacency-list range is a
/// contiguous [begin, end) span here.
///
/// Build() also records the inverse map (PosOfColumn), which the extension
/// pass uses to locate a detected pattern's columns in another line.
/// BuildPrefixBounds() optionally adds an O(1) range-min/max table over the
/// prefix sums for the bisected adjacency search on long lines.
class LineIndex {
 public:
  /// Indexes line `line` of `view`, honoring the `active` column mask.
  /// Reuses the buffers across calls, so a caller that indexes many lines
  /// keeps one instance for all of them: DetectIndividualRowwise owns one per
  /// scan chunk and passes it into the row scans, and ExtendAggregations one
  /// per call. The single-row scan overloads build a fresh one.
  void Build(const numfmt::AxisView& view, const std::vector<bool>& active,
             int line);

  /// Number of usable (range-eligible) cells in the line.
  int size() const { return static_cast<int>(cols_.size()); }

  /// Original view column of compact position `pos`.
  int col(int pos) const { return cols_[static_cast<size_t>(pos)]; }

  /// Compact position of original view column `col`, or -1 when that column
  /// is inactive or not range-usable in the indexed line.
  int PosOfColumn(int col) const { return pos_of_col_[static_cast<size_t>(col)]; }

  double value(int pos) const { return values_[static_cast<size_t>(pos)]; }

  bool is_numeric(int pos) const {
    return numeric_[static_cast<size_t>(pos)] != 0;
  }

  /// Sum of values over compact positions [begin, end) as one prefix
  /// subtraction. O(1); see SumErrorBound for how far it can sit from the
  /// compensated walk over the same span.
  double PrefixSum(int begin, int end) const {
    return prefix_[static_cast<size_t>(end)] - prefix_[static_cast<size_t>(begin)];
  }

  /// Conservative bound on |PrefixSum(begin, end) - compensated walk sum|
  /// for any span ending at `end`. Both prefix entries carry accumulated
  /// rounding proportional to the *whole-prefix* magnitude mass (not just the
  /// span's), so the bound uses prefix_abs at the span end; the linear factor
  /// covers the classic gamma_n forward-error term of n sequential adds, the
  /// final subtraction, and the O(eps) error of a compensated sum. The value
  /// is precomputed per position in Build(), so the hot screens pay one load.
  /// Never zero for a non-empty span: see the floor note in Build().
  double SumErrorBound(int end) const { return drift_[static_cast<size_t>(end)]; }

  /// Prefix entry `p` (the sum of values over compact positions [0, p)) —
  /// the exact operand PrefixSum subtracts.
  double Prefix(int p) const { return prefix_[static_cast<size_t>(p)]; }

  /// Compensated (Kahan) sum of values over compact positions [begin, end),
  /// in ascending order, or descending when `reverse` — the exact operation
  /// sequence of the retained naive adjacency walk in each direction, so a
  /// fallback through this path is bit-identical to the reference scan.
  double CompensatedSum(int begin, int end, bool reverse) const;

  /// Builds the O(1) range-min/max table (a level-major sparse table) over
  /// the size() + 1 prefix entries. Returns false
  /// and builds nothing when the last prefix entry is not finite: a running
  /// sum that met an infinite or NaN value, or overflowed, stays non-finite,
  /// so a finite last entry means every entry is finite and totally ordered.
  /// Buffers are reused across calls.
  bool BuildPrefixBounds();

  /// Minimum of Prefix(p) over p in [begin, end). Requires a prior
  /// BuildPrefixBounds() that returned true for this line; the range must be
  /// non-empty.
  double PrefixMin(int begin, int end) const {
    return TableMin(prefix_min_, prefix_.size(), begin, end);
  }

  /// Maximum of Prefix(p) over p in [begin, end); same contract as
  /// PrefixMin.
  double PrefixMax(int begin, int end) const {
    return TableMax(prefix_max_, prefix_.size(), begin, end);
  }

 private:
  static int SpanLevel(int length) {
    return std::bit_width(static_cast<unsigned>(length)) - 1;
  }
  static double MinOf(double a, double b) { return a < b ? a : b; }
  static double MaxOf(double a, double b) { return a > b ? a : b; }

  // Fills `mins`/`maxs` with the level-major sparse table of `source`
  // (stride source.size()), for BuildPrefixBounds.
  static void BuildMinMaxTable(const std::vector<double>& source,
                               std::vector<double>& mins,
                               std::vector<double>& maxs);

  // Two-probe queries over a table built by BuildMinMaxTable.
  static double TableMin(const std::vector<double>& table, size_t stride,
                         int begin, int end) {
    const int level = SpanLevel(end - begin);
    return MinOf(table[static_cast<size_t>(level) * stride +
                       static_cast<size_t>(begin)],
                 table[static_cast<size_t>(level) * stride +
                       static_cast<size_t>(end - (1 << level))]);
  }
  static double TableMax(const std::vector<double>& table, size_t stride,
                         int begin, int end) {
    const int level = SpanLevel(end - begin);
    return MaxOf(table[static_cast<size_t>(level) * stride +
                       static_cast<size_t>(begin)],
                 table[static_cast<size_t>(level) * stride +
                       static_cast<size_t>(end - (1 << level))]);
  }

  std::vector<int> cols_;
  std::vector<double> values_;
  std::vector<uint8_t> numeric_;
  std::vector<double> prefix_;      // prefix_[p] = sum of values_[0..p)
  std::vector<double> prefix_abs_;  // same over |values_|
  std::vector<double> drift_;       // SumErrorBound(p), precomputed
  std::vector<int> pos_of_col_;     // view column -> compact position (-1)
  std::vector<double> prefix_min_;  // sparse table over prefix_, level-major,
                                    // stride size() + 1
  std::vector<double> prefix_max_;
};

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_LINE_INDEX_H_
