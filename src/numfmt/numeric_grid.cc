#include "numfmt/numeric_grid.h"

#include <cctype>

#include "util/string_util.h"

namespace aggrecol::numfmt {
namespace {

bool IsZeroMarker(std::string_view stripped) {
  return stripped == "x" || stripped == "X" || stripped == "-" ||
         stripped == "–" /* en dash */ || stripped == "—" /* em dash */;
}

// Strips a trailing textual decoration ("Points", "%", "pts.") that contains
// at least one letter; returns the numeric-looking prefix.
std::string_view StripTextSuffix(std::string_view text) {
  size_t end = text.size();
  bool saw_letter = false;
  while (end > 0) {
    const unsigned char c = static_cast<unsigned char>(text[end - 1]);
    if (std::isalpha(c) || c == '%' || c == '.' || c == ' ') {
      if (std::isalpha(c)) saw_letter = true;
      --end;
    } else {
      break;
    }
  }
  if (!saw_letter) return text;
  return text.substr(0, end);
}

}  // namespace

CellInterpretation InterpretCell(std::string_view cell, NumberFormat format,
                                 const NormalizeOptions& options) {
  const std::string_view stripped = util::StripWhitespace(cell);
  if (stripped.empty()) {
    if (options.treat_empty_as_zero) return {CellKind::kEmptyZero, 0.0};
    return {CellKind::kText, 0.0};
  }
  if (options.recognize_zero_markers && IsZeroMarker(stripped)) {
    return {CellKind::kZeroMarker, 0.0};
  }
  if (auto value = ParseNumber(stripped, format); value.has_value()) {
    return {CellKind::kNumeric, *value};
  }
  if (options.lenient_extraction &&
      !std::isalpha(static_cast<unsigned char>(stripped.front()))) {
    const std::string_view prefix = util::StripWhitespace(StripTextSuffix(stripped));
    if (!prefix.empty() && prefix.size() < stripped.size()) {
      if (auto value = ParseNumber(prefix, format); value.has_value()) {
        return {CellKind::kNumeric, *value};
      }
    }
  }
  return {CellKind::kText, 0.0};
}

NumericGrid NumericGrid::FromGrid(const csv::Grid& grid,
                                  const NormalizeOptions& options) {
  return FromGrid(grid, ElectFormat(grid), options);
}

NumericGrid NumericGrid::FromGrid(const csv::Grid& grid, NumberFormat format,
                                  const NormalizeOptions& options) {
  NumericGrid out(grid.rows(), grid.columns(), format);
  for (int i = 0; i < grid.rows(); ++i) {
    for (int j = 0; j < grid.columns(); ++j) {
      const CellInterpretation cell = InterpretCell(grid.at(i, j), format, options);
      out.kinds_[out.Index(i, j)] = cell.kind;
      out.values_[out.Index(i, j)] = cell.value;
    }
  }
  out.CountNumericCells();
  return out;
}

void NumericGrid::CountNumericCells() {
  numeric_per_row_.assign(static_cast<size_t>(rows_), 0);
  numeric_per_column_.assign(static_cast<size_t>(columns_), 0);
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < columns_; ++j) {
      if (!IsNumeric(i, j)) continue;
      ++numeric_per_row_[static_cast<size_t>(i)];
      ++numeric_per_column_[static_cast<size_t>(j)];
    }
  }
}

NumericGrid NumericGrid::Transposed() const {
  NumericGrid out(columns_, rows_, format_);
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < columns_; ++j) {
      out.kinds_[out.Index(j, i)] = kinds_[Index(i, j)];
      out.values_[out.Index(j, i)] = values_[Index(i, j)];
    }
  }
  out.CountNumericCells();
  return out;
}

NumericGrid NumericGrid::WithColumns(const std::vector<int>& keep) const {
  NumericGrid out(rows_, static_cast<int>(keep.size()), format_);
  for (int i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < keep.size(); ++k) {
      out.kinds_[out.Index(i, static_cast<int>(k))] = kinds_[Index(i, keep[k])];
      out.values_[out.Index(i, static_cast<int>(k))] = values_[Index(i, keep[k])];
    }
  }
  out.CountNumericCells();
  return out;
}

}  // namespace aggrecol::numfmt
