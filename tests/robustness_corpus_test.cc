// Adversarial-corpus battery: every generated messy file must be internally
// consistent (parsing the bytes under the ground-truth dialect reproduces the
// ground-truth grid, and the annotations index that grid), the corpus must be
// deterministic, and the consistency sniffer must strictly beat the retained
// reference sniffer on the aggregate robustness score — the differential the
// BENCH_robustness.json CI gate tracks over time.
#include <map>

#include "csv/parser.h"
#include "csv/sniffer.h"
#include "datagen/messy_generator.h"
#include "eval/robustness.h"
#include "gtest/gtest.h"
#include "tests/oracle/csv_reference.h"

namespace aggrecol {
namespace {

using datagen::MessyCategory;
using datagen::MessyCorpusSpec;
using datagen::MessyFile;

const std::vector<MessyFile>& Corpus() {
  static const auto* const kCorpus = new std::vector<MessyFile>(
      datagen::GenerateMessyCorpus(MessyCorpusSpec{}));
  return *kCorpus;
}

TEST(MessyCorpus, CoversEveryCategoryWithRequestedFileCount) {
  const MessyCorpusSpec spec;
  std::map<std::string, int> per_category;
  for (const auto& file : Corpus()) ++per_category[ToString(file.category)];
  ASSERT_EQ(per_category.size(), datagen::kAllMessyCategories.size());
  for (const auto& [category, count] : per_category) {
    EXPECT_EQ(count, spec.files_per_category) << category;
  }
}

TEST(MessyCorpus, IsDeterministic) {
  const auto again = datagen::GenerateMessyCorpus(MessyCorpusSpec{});
  ASSERT_EQ(again.size(), Corpus().size());
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].text, Corpus()[i].text) << i;
    EXPECT_TRUE(again[i].dialect == Corpus()[i].dialect) << i;
    EXPECT_TRUE(again[i].annotated.grid == Corpus()[i].annotated.grid) << i;
  }
}

// The ground-truth contract: parsing the raw bytes under the ground-truth
// dialect must reproduce the ground-truth grid exactly. This is what makes
// the corpus usable as a scoring oracle at all.
TEST(MessyCorpus, GroundTruthDialectReproducesGroundTruthGrid) {
  for (const auto& file : Corpus()) {
    const csv::Grid parsed = csv::ParseGrid(file.text, file.dialect);
    EXPECT_TRUE(parsed == file.annotated.grid) << file.annotated.name;
  }
}

TEST(MessyCorpus, AnnotationsIndexTheGroundTruthGrid) {
  for (const auto& file : Corpus()) {
    const csv::Grid& grid = file.annotated.grid;
    for (const auto& aggregation : file.annotated.annotations) {
      const int line_count = aggregation.axis == core::Axis::kRow
                                 ? grid.rows()
                                 : grid.columns();
      const int line_length = aggregation.axis == core::Axis::kRow
                                  ? grid.columns()
                                  : grid.rows();
      ASSERT_GE(aggregation.line, 0) << file.annotated.name;
      ASSERT_LT(aggregation.line, line_count) << file.annotated.name;
      ASSERT_GE(aggregation.aggregate, 0) << file.annotated.name;
      ASSERT_LT(aggregation.aggregate, line_length) << file.annotated.name;
      for (int index : aggregation.range) {
        ASSERT_GE(index, 0) << file.annotated.name;
        ASSERT_LT(index, line_length) << file.annotated.name;
        ASSERT_NE(index, aggregation.aggregate) << file.annotated.name;
      }
    }
  }
}

TEST(MessyCorpus, EveryFileCarriesAggregations) {
  for (const auto& file : Corpus()) {
    EXPECT_FALSE(file.annotated.annotations.empty()) << file.annotated.name;
  }
}

TEST(MessyCorpus, EncodingQuirkFilesActuallyCarryQuirks) {
  for (const auto& file : Corpus()) {
    if (file.category != MessyCategory::kEncodingQuirks) continue;
    const bool has_bom = file.text.rfind("\xEF\xBB\xBF", 0) == 0;
    const bool has_cr = file.text.find('\r') != std::string::npos;
    EXPECT_TRUE(has_bom || has_cr) << file.annotated.name;
  }
}

TEST(MessyCorpus, AmbiguousFilesAreWidthConsistentUnderComma) {
  // The trap construction: splitting an ambiguous file on ',' must yield the
  // same row width as the true dialect, for every row — otherwise row-width
  // statistics alone could break the tie and the category would not isolate
  // the type model.
  for (const auto& file : Corpus()) {
    if (file.category != MessyCategory::kAmbiguousDialect) continue;
    const auto comma_rows = csv::ParseRows(file.text, csv::Dialect{',', '"'});
    ASSERT_FALSE(comma_rows.empty());
    const size_t width = static_cast<size_t>(file.annotated.grid.columns());
    for (const auto& row : comma_rows) {
      EXPECT_EQ(row.size(), width) << file.annotated.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Robustness scoring
// ---------------------------------------------------------------------------

eval::RobustnessReport Score(csv::SniffResult (*sniff)(std::string_view)) {
  eval::RobustnessOptions options;
  options.sniff = sniff;
  return eval::ScoreRobustness(datagen::ToRobustnessCases(Corpus()), options);
}

TEST(Robustness, ConsistencySnifferElectsTruthOnEveryCorpusFile) {
  for (const auto& file : Corpus()) {
    const auto sniffed = csv::SniffDialect(file.text);
    EXPECT_TRUE(sniffed.dialect == file.dialect)
        << file.annotated.name << ": got " << ToString(sniffed.dialect)
        << " want " << ToString(file.dialect);
  }
}

TEST(Robustness, ConsistencyStrictlyBeatsReferenceOnAggregate) {
  const auto consistency = Score(&csv::SniffDialect);
  const auto reference = Score(&csv::SniffDialectReference);
  EXPECT_GT(consistency.AggregateScore(), reference.AggregateScore());
  // And never loses a category: the consistency sniffer must dominate, not
  // trade one failure mode for another.
  ASSERT_EQ(consistency.categories.size(), reference.categories.size());
  for (size_t i = 0; i < consistency.categories.size(); ++i) {
    EXPECT_GE(consistency.categories[i].Score() + 1e-12,
              reference.categories[i].Score())
        << consistency.categories[i].category;
  }
}

TEST(Robustness, ReferenceSnifferFallsForTheAmbiguousDialectTrap) {
  const auto reference = Score(&csv::SniffDialectReference);
  const auto consistency = Score(&csv::SniffDialect);
  for (size_t i = 0; i < reference.categories.size(); ++i) {
    if (reference.categories[i].category != "ambiguous-dialect") continue;
    EXPECT_LT(reference.categories[i].DialectAccuracy(), 0.5);
    EXPECT_EQ(consistency.categories[i].DialectAccuracy(), 1.0);
    return;
  }
  FAIL() << "ambiguous-dialect category missing from report";
}

TEST(Robustness, ReportPoolsPerCategoryInFirstAppearanceOrder) {
  const auto report = Score(&csv::SniffDialect);
  ASSERT_EQ(report.categories.size(), datagen::kAllMessyCategories.size());
  const MessyCorpusSpec spec;
  for (size_t i = 0; i < report.categories.size(); ++i) {
    EXPECT_EQ(report.categories[i].category,
              ToString(datagen::kAllMessyCategories[i]));
    EXPECT_EQ(report.categories[i].files, spec.files_per_category);
  }
  EXPECT_GT(report.AggregateScore(), 0.9);
}

TEST(Robustness, EmptyReportScoresZero) {
  const eval::RobustnessReport empty;
  EXPECT_EQ(empty.AggregateScore(), 0.0);
  const eval::CategoryRobustness none;
  EXPECT_EQ(none.DialectAccuracy(), 0.0);
  EXPECT_EQ(none.ParseFidelity(), 0.0);
}

}  // namespace
}  // namespace aggrecol
