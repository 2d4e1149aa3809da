#ifndef AGGRECOL_EVAL_ANNOTATIONS_H_
#define AGGRECOL_EVAL_ANNOTATIONS_H_

#include <optional>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/composite_detector.h"
#include "csv/grid.h"
#include "eval/cell_role.h"
#include "numfmt/number_format.h"

namespace aggrecol::eval {

/// A verbose CSV file together with its aggregation ground truth and
/// (optionally) per-cell role labels — the unit of both our synthetic
/// corpora and externally annotated datasets (Sec. 4.1).
struct AnnotatedFile {
  std::string name;
  csv::Grid grid;
  std::vector<core::Aggregation> annotations;

  /// Per-cell roles (same shape as `grid`); empty when unlabeled. Used by the
  /// cell-classification experiment (Table 5).
  std::vector<std::vector<CellRole>> roles;

  /// Composite sum-then-divide ground truth (only present in corpora that
  /// enable the Sec. 6 extension).
  std::vector<core::CompositeAggregation> composites;

  /// Number format the file was serialized with. Set by the generator only:
  /// files loaded from disk keep the default, and AggreCol::Detect elects
  /// the format from the grid itself.
  numfmt::NumberFormat format = numfmt::NumberFormat::kCommaDot;
};

/// Serializes `annotations` to the line-based annotation format:
/// one line per aggregation, `axis,line,aggregate,function,i1;i2;...,error`.
std::string SerializeAnnotations(const std::vector<core::Aggregation>& annotations);

/// Parses the annotation format produced by SerializeAnnotations. Lines
/// starting with `composite,` are skipped (see ParseComposites). Returns
/// std::nullopt on malformed input.
std::optional<std::vector<core::Aggregation>> ParseAnnotations(const std::string& text);

/// Serializes composite aggregations, one per line:
/// `composite,axis,line,aggregate,denominator,n1;n2;...,error`.
std::string SerializeComposites(
    const std::vector<core::CompositeAggregation>& composites);

/// Parses the `composite,` lines of an annotation file (other lines are
/// skipped). Returns std::nullopt on malformed composite lines.
std::optional<std::vector<core::CompositeAggregation>> ParseComposites(
    const std::string& text);

}  // namespace aggrecol::eval

#endif  // AGGRECOL_EVAL_ANNOTATIONS_H_
