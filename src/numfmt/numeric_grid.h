#ifndef AGGRECOL_NUMFMT_NUMERIC_GRID_H_
#define AGGRECOL_NUMFMT_NUMERIC_GRID_H_

#include <string_view>
#include <vector>

#include "csv/grid.h"
#include "numfmt/number_format.h"

namespace aggrecol::numfmt {

/// Interpretation of a single cell after number-format normalization.
enum class CellKind {
  kNumeric,     // an explicit number; may act as aggregate or range element
  kEmptyZero,   // empty cell, interpreted as the number zero (Sec. 2.1)
  kZeroMarker,  // textual zero marker such as 'x' or '-' (Sec. 4.1)
  kText,        // non-numeric content: header, metadata, notes, ...
};

/// Options controlling the normalization of cells into numbers.
struct NormalizeOptions {
  /// Interpret empty cells as the numeric value zero (paper Sec. 2.1:
  /// "users often express the numeric value zero with an empty table cell").
  bool treat_empty_as_zero = true;

  /// Recognize textual zero markers ('x', '-', ...) as zero (Sec. 4.1).
  bool recognize_zero_markers = true;

  /// Extract numbers from decorated cells such as "+1.4 Points" (Sec. 4.1).
  bool lenient_extraction = true;
};

/// A numeric view of a Grid: every cell carries its CellKind and, for numeric
/// and zero-like kinds, its normalized double value. This is the input to all
/// aggregation detectors.
class NumericGrid {
 public:
  /// Normalizes `grid`, electing the number format per Sec. 4.2.
  static NumericGrid FromGrid(const csv::Grid& grid,
                              const NormalizeOptions& options = {});

  /// Normalizes `grid` under a caller-chosen format.
  static NumericGrid FromGrid(const csv::Grid& grid, NumberFormat format,
                              const NormalizeOptions& options = {});

  int rows() const { return rows_; }
  int columns() const { return columns_; }

  CellKind kind(int row, int col) const { return kinds_[Index(row, col)]; }
  double value(int row, int col) const { return values_[Index(row, col)]; }

  /// True for explicit numbers: the only cells allowed as aggregates, and the
  /// cells counted by the sufficiency score denominator (Sec. 3.1).
  bool IsNumeric(int row, int col) const {
    return kind(row, col) == CellKind::kNumeric;
  }

  /// True for cells that carry a numeric value when used inside a range:
  /// explicit numbers plus empty/marker zeros.
  bool IsRangeUsable(int row, int col) const {
    const CellKind k = kind(row, col);
    return k == CellKind::kNumeric || k == CellKind::kEmptyZero ||
           k == CellKind::kZeroMarker;
  }

  /// Number of explicit numeric cells in column `col`. O(1): the counts of
  /// both axes are taken once when the grid is built.
  int NumericCountInColumn(int col) const {
    return numeric_per_column_[static_cast<size_t>(col)];
  }

  /// Number of explicit numeric cells in row `row`. O(1), like the above.
  int NumericCountInRow(int row) const {
    return numeric_per_row_[static_cast<size_t>(row)];
  }

  /// The elected (or supplied) number format of the underlying file.
  NumberFormat format() const { return format_; }

  /// Returns a deep-copied transposed grid: rows become columns. The
  /// detection pipeline no longer uses this — column-wise detection runs on
  /// the zero-copy AxisView::Columns() (see axis_view.h) — but the copy is
  /// kept as the reference for the transpose-elimination benchmark and for
  /// tests.
  NumericGrid Transposed() const;

  /// Returns the view restricted to the columns in `keep`, in order. Used by
  /// the supplemental stage to construct derived files (Alg. 2).
  NumericGrid WithColumns(const std::vector<int>& keep) const;

 private:
  // AxisView (axis_view.h) wraps the SoA buffers with stride arithmetic; it
  // is the only other type allowed at the raw storage.
  friend class AxisView;

  NumericGrid(int rows, int columns, NumberFormat format)
      : rows_(rows),
        columns_(columns),
        format_(format),
        kinds_(static_cast<size_t>(rows) * columns, CellKind::kText),
        values_(static_cast<size_t>(rows) * columns, 0.0) {}

  size_t Index(int row, int col) const {
    return static_cast<size_t>(row) * columns_ + col;
  }

  // Fills the per-row and per-column numeric counts; every factory calls it
  // once its cells are final.
  void CountNumericCells();

  int rows_ = 0;
  int columns_ = 0;
  NumberFormat format_ = NumberFormat::kCommaDot;
  std::vector<CellKind> kinds_;
  std::vector<double> values_;
  std::vector<int> numeric_per_row_;
  std::vector<int> numeric_per_column_;
};

/// Attempts to interpret a single cell. Exposed for tests and for feature
/// extraction in the cell classifier.
struct CellInterpretation {
  CellKind kind = CellKind::kText;
  double value = 0.0;
};
CellInterpretation InterpretCell(std::string_view cell, NumberFormat format,
                                 const NormalizeOptions& options);

}  // namespace aggrecol::numfmt

#endif  // AGGRECOL_NUMFMT_NUMERIC_GRID_H_
