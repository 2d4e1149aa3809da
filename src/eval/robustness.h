#ifndef AGGRECOL_EVAL_ROBUSTNESS_H_
#define AGGRECOL_EVAL_ROBUSTNESS_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/aggrecol.h"
#include "core/aggregation.h"
#include "csv/dialect.h"
#include "csv/grid.h"
#include "csv/sniffer.h"
#include "eval/metrics.h"

namespace aggrecol::eval {

/// One robustness test case: raw file bytes plus the ground truth a correct
/// sniff-parse-detect run should recover. Produced by
/// datagen::ToRobustnessCases (eval cannot depend on datagen, so the scoring
/// plumbing takes this neutral shape).
struct RobustnessCase {
  std::string name;
  std::string category;
  std::string text;               // raw bytes as they would sit on disk
  csv::Dialect expected_dialect;  // ground-truth writing dialect
  csv::Grid expected_grid;        // ground-truth parse under that dialect
  std::vector<core::Aggregation> truth;
};

struct RobustnessOptions {
  /// The dialect sniffer the run elects dialects with. Tests and benches
  /// swap in the retained reference heuristic (tests/oracle/csv_reference.h)
  /// to score it against the consistency sniffer.
  csv::SniffResult (*sniff)(std::string_view text) = &csv::SniffDialect;

  /// Detection configuration; split_tables defaults on because the corpus
  /// contains stacked-table files (the clean-corpus default stays off).
  core::AggreColConfig config = [] {
    core::AggreColConfig config;
    config.split_tables = true;
    return config;
  }();
};

/// Per-category outcome of a robustness run. The category score averages
/// three [0, 1] components so each defence layer is visible on its own:
/// dialect accuracy (sniffer), parse fidelity (sniffer + parser), and
/// detection F1 (whole pipeline) — see docs/ROBUSTNESS.md.
struct CategoryRobustness {
  std::string category;
  int files = 0;
  int dialect_correct = 0;  // sniffed dialect equals the expected dialect
  int parse_exact = 0;      // sniffed parse reproduces the expected grid
  Scores detection;         // pooled over the category's files

  double DialectAccuracy() const;
  double ParseFidelity() const;
  double Score() const;
};

struct RobustnessReport {
  /// One entry per category, in first-appearance order of `cases`.
  std::vector<CategoryRobustness> categories;

  /// Unweighted mean of the per-category scores — the headline robustness
  /// number gated in CI (BENCH_robustness.json).
  double AggregateScore() const;
};

/// Runs sniff -> parse -> detect on every case and scores the result against
/// the ground truth, pooled per category.
RobustnessReport ScoreRobustness(const std::vector<RobustnessCase>& cases,
                                 const RobustnessOptions& options);

}  // namespace aggrecol::eval

#endif  // AGGRECOL_EVAL_ROBUSTNESS_H_
