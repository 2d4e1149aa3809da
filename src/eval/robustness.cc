#include "eval/robustness.h"

#include <map>

#include "csv/parser.h"

namespace aggrecol::eval {

double CategoryRobustness::DialectAccuracy() const {
  if (files == 0) return 0.0;
  return static_cast<double>(dialect_correct) / files;
}

double CategoryRobustness::ParseFidelity() const {
  if (files == 0) return 0.0;
  return static_cast<double>(parse_exact) / files;
}

double CategoryRobustness::Score() const {
  return (DialectAccuracy() + ParseFidelity() + detection.F1()) / 3.0;
}

double RobustnessReport::AggregateScore() const {
  if (categories.empty()) return 0.0;
  double total = 0.0;
  for (const auto& category : categories) total += category.Score();
  return total / static_cast<double>(categories.size());
}

RobustnessReport ScoreRobustness(const std::vector<RobustnessCase>& cases,
                                 const RobustnessOptions& options) {
  RobustnessReport report;
  std::map<std::string, size_t> category_index;
  std::map<std::string, std::vector<Scores>> per_category_scores;
  const core::AggreCol detector(options.config);

  for (const auto& test_case : cases) {
    const csv::SniffResult sniffed = options.sniff(test_case.text);
    const csv::Grid grid =
        csv::ParseGrid(test_case.text, sniffed.dialect,
                       csv::ParseHints{sniffed.modal_row_width});

    auto it = category_index.find(test_case.category);
    if (it == category_index.end()) {
      it = category_index.emplace(test_case.category, report.categories.size())
               .first;
      report.categories.push_back({});
      report.categories.back().category = test_case.category;
    }
    CategoryRobustness& entry = report.categories[it->second];
    ++entry.files;
    if (sniffed.dialect == test_case.expected_dialect) ++entry.dialect_correct;
    if (grid == test_case.expected_grid) ++entry.parse_exact;

    // The detector runs on whatever the elected dialect produced: a mis-sniff
    // degrades the detection component exactly the way it would degrade a
    // production run on an untrusted upload.
    const auto result = detector.Detect(grid);
    per_category_scores[test_case.category].push_back(
        Score(result.aggregations, test_case.truth));
  }

  for (auto& entry : report.categories) {
    entry.detection = Accumulate(per_category_scores[entry.category]);
  }
  return report;
}

}  // namespace aggrecol::eval
