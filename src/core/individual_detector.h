#ifndef AGGRECOL_CORE_INDIVIDUAL_DETECTOR_H_
#define AGGRECOL_CORE_INDIVIDUAL_DETECTOR_H_

#include <vector>

#include "core/aggregation.h"
#include "core/pruning.h"
#include "numfmt/axis_view.h"
#include "util/thread_pool.h"

namespace aggrecol::core {

class PatternLedger;

/// Parameters of one individual detector run (Alg. 1 inputs).
struct IndividualConfig {
  /// Maximum tolerable error level e for this function.
  double error_level = 0.0;

  /// Line aggregation coverage threshold cov.
  double coverage = 0.7;

  /// Sliding-window size w for non-commutative functions (Sec. 4.3.2 fixes
  /// it at 10 to cover most difference/division/relative-change ranges).
  int window_size = 10;

  /// Pruning-step toggles (all on by default); see PruningRules.
  PruningRules rules;

  /// Shared pool for the per-row detection scan (rows are independent;
  /// results are concatenated in row order, so output is identical for any
  /// thread count). nullptr = sequential. Non-owning.
  util::ThreadPool* pool = nullptr;

  /// Cooperative cancellation: checked between rows and between iterations;
  /// a tripped token aborts the run with util::CancelledError.
  util::CancellationToken cancel;

  /// Pattern validations shared with other runs over the same grid at the
  /// same error level (the supplemental stage shares one per function
  /// across its derived files); nullptr = a ledger local to this run.
  /// Non-owning; see PatternLedger.
  PatternLedger* ledger = nullptr;
};

/// Individual aggregation detection (Alg. 1), line-wise on `grid` (a
/// zero-copy AxisView: pass a NumericGrid directly for row-wise detection, or
/// AxisView::Columns() for column-wise detection without a transposed copy):
/// repeatedly (a) detects adjacent aggregations per row using the strategy
/// matching the function's properties, (b) extends them across rows,
/// (c) prunes spurious pattern groups — a group that rule R1 would drop is
/// dropped before its extension rows are built, and counted as R1's — and,
/// for cumulative functions,
/// (d) logically removes the detected range columns and iterates so that
/// cumulative aggregations (Fig. 3b) surface in later rounds.
///
/// `initial_active` optionally masks columns excluded up front — the
/// supplemental stage's constructed files (Alg. 2) are expressed this way.
/// Pass nullptr for "all columns active". Results are row-wise in the
/// coordinates of `grid`.
std::vector<Aggregation> DetectIndividualRowwise(
    const numfmt::AxisView& grid, AggregationFunction function,
    const IndividualConfig& config,
    const std::vector<bool>* initial_active = nullptr);

}  // namespace aggrecol::core

#endif  // AGGRECOL_CORE_INDIVIDUAL_DETECTOR_H_
