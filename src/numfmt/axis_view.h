#ifndef AGGRECOL_NUMFMT_AXIS_VIEW_H_
#define AGGRECOL_NUMFMT_AXIS_VIEW_H_

#include <cstddef>

#include "numfmt/numeric_grid.h"

namespace aggrecol::numfmt {

/// A zero-copy, strided view of a NumericGrid along one detection axis.
///
/// The detectors are written line-wise: "for every line, scan its cells".
/// Row-wise detection reads the grid as stored; column-wise detection used to
/// materialize `NumericGrid::Transposed()` — a full deep copy of both SoA
/// buffers per file. AxisView replaces that copy with stride arithmetic over
/// the *same* buffers: `Rows()` yields the identity view and `Columns()` the
/// transposed view, so "line" means a row in the former and a column in the
/// latter while the accessor API stays exactly NumericGrid's.
///
/// Views are trivially copyable (four pointers plus strides) and non-owning:
/// the underlying NumericGrid must outlive every view of it. The strided
/// column view reads are non-contiguous, but the stage-1 kernels touch the
/// raw buffers once per line (the LineIndex compaction) and then work on
/// contiguous scratch, so the stride never sits in an inner loop.
class AxisView {
 public:
  /// The identity (row-major) view: lines are grid rows. Implicit so every
  /// line-wise API taking an AxisView also accepts a NumericGrid directly.
  // NOLINTNEXTLINE(google-explicit-constructor)
  AxisView(const NumericGrid& grid) : AxisView(grid, /*transposed=*/false) {}

  /// Lines are grid rows (same as the implicit conversion, named for clarity).
  static AxisView Rows(const NumericGrid& grid) { return AxisView(grid, false); }

  /// Lines are grid columns: the transposed view, without the transpose.
  static AxisView Columns(const NumericGrid& grid) { return AxisView(grid, true); }

  /// Lines of the view ("rows" in detector coordinates).
  int rows() const { return rows_; }

  /// Cells per line ("columns" in detector coordinates).
  int columns() const { return columns_; }

  /// True for the Columns() view (detector indices are grid-transposed).
  bool transposed() const { return transposed_; }

  CellKind kind(int row, int col) const { return kinds_[Offset(row, col)]; }
  double value(int row, int col) const { return values_[Offset(row, col)]; }

  /// True for explicit numbers: the only cells allowed as aggregates (Sec. 3.1).
  bool IsNumeric(int row, int col) const {
    return kind(row, col) == CellKind::kNumeric;
  }

  /// True for cells that carry a numeric value when used inside a range.
  bool IsRangeUsable(int row, int col) const {
    const CellKind k = kind(row, col);
    return k == CellKind::kNumeric || k == CellKind::kEmptyZero ||
           k == CellKind::kZeroMarker;
  }

  /// Number of explicit numeric cells in view column `col` (the sufficiency
  /// denominator of Sec. 3.1, in view coordinates). O(1): the grid's own
  /// count for the matching axis.
  int NumericCountInColumn(int col) const {
    return column_counts_[static_cast<size_t>(col)];
  }

  /// Number of explicit numeric cells in view row `row`. O(1), like the
  /// above.
  int NumericCountInRow(int row) const {
    return row_counts_[static_cast<size_t>(row)];
  }

  /// The elected number format of the underlying file.
  NumberFormat format() const { return format_; }

 private:
  AxisView(const NumericGrid& grid, bool transposed)
      : kinds_(grid.kinds_.data()),
        values_(grid.values_.data()),
        row_counts_(transposed ? grid.numeric_per_column_.data()
                               : grid.numeric_per_row_.data()),
        column_counts_(transposed ? grid.numeric_per_row_.data()
                                  : grid.numeric_per_column_.data()),
        rows_(transposed ? grid.columns() : grid.rows()),
        columns_(transposed ? grid.rows() : grid.columns()),
        line_stride_(transposed ? 1 : static_cast<size_t>(grid.columns())),
        cell_stride_(transposed ? static_cast<size_t>(grid.columns()) : 1),
        transposed_(transposed),
        format_(grid.format()) {}

  size_t Offset(int row, int col) const {
    return static_cast<size_t>(row) * line_stride_ +
           static_cast<size_t>(col) * cell_stride_;
  }

  const CellKind* kinds_;
  const double* values_;
  const int* row_counts_;     // numeric cells per view row
  const int* column_counts_;  // numeric cells per view column
  int rows_;
  int columns_;
  size_t line_stride_;
  size_t cell_stride_;
  bool transposed_;
  NumberFormat format_;
};

}  // namespace aggrecol::numfmt

#endif  // AGGRECOL_NUMFMT_AXIS_VIEW_H_
