#include "core/supplemental_detector.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/aggrecol.h"
#include "core/collective_detector.h"
#include "core/individual_detector.h"
#include "datagen/corpus.h"
#include "datagen/file_generator.h"
#include "gtest/gtest.h"
#include "numfmt/axis_view.h"
#include "obs/metrics.h"
#include "tests/test_support.h"
#include "util/thread_pool.h"

namespace aggrecol::core {
namespace {

using aggrecol::testing::Agg;
using aggrecol::testing::Contains;
using aggrecol::testing::Digest;
using aggrecol::testing::MakeNumeric;

SupplementalConfig Config() {
  SupplementalConfig config;
  config.functions = {AggregationFunction::kSum, AggregationFunction::kAverage};
  config.error_levels.fill(0.0);
  config.coverage = 0.7;
  config.window_size = 10;
  return config;
}

// The Figure 3c interrupt layout: the average aggregate sits between the sum
// aggregate and the shared range, blocking the adjacency scan.
numfmt::NumericGrid InterruptGrid() {
  return MakeNumeric({
      // total | average | m1 | m2 | m3
      {"6", "2", "1", "2", "3"},
      {"12", "4", "3", "4", "5"},
      {"18", "6", "5", "6", "7"},
  });
}

TEST(Supplemental, RecoversInterruptSum) {
  const auto grid = InterruptGrid();
  IndividualConfig individual;
  individual.error_level = 0.0;
  // Stage 1 finds the averages but not the blocked sums.
  const auto averages =
      DetectIndividualRowwise(grid, AggregationFunction::kAverage, individual);
  ASSERT_TRUE(Contains(averages, Agg(0, 1, {2, 3, 4}, AggregationFunction::kAverage)));
  const auto sums = DetectIndividualRowwise(grid, AggregationFunction::kSum, individual);
  EXPECT_FALSE(Contains(sums, Agg(0, 0, {2, 3, 4}, AggregationFunction::kSum)));

  // Stage 3: removing the average aggregate column makes the sum adjacent.
  std::vector<Aggregation> detected = averages;
  detected.insert(detected.end(), sums.begin(), sums.end());
  const auto supplemental = DetectSupplementalRowwise(grid, Config(), detected);
  EXPECT_TRUE(
      Contains(supplemental, Agg(0, 0, {2, 3, 4}, AggregationFunction::kSum)));
  EXPECT_TRUE(
      Contains(supplemental, Agg(2, 0, {2, 3, 4}, AggregationFunction::kSum)));
}

TEST(Supplemental, ReturnsOnlyNewAggregations) {
  const auto grid = InterruptGrid();
  IndividualConfig individual;
  individual.error_level = 0.0;
  const auto averages =
      DetectIndividualRowwise(grid, AggregationFunction::kAverage, individual);
  const auto supplemental = DetectSupplementalRowwise(grid, Config(), averages);
  for (const auto& aggregation : supplemental) {
    EXPECT_FALSE(Contains(averages, aggregation));
  }
}

TEST(Supplemental, NothingDetectedNothingReturned) {
  const auto grid = MakeNumeric({
      {"1", "7", "19"},
      {"2", "8", "23"},
  });
  EXPECT_TRUE(DetectSupplementalRowwise(grid, Config(), {}).empty());
}

TEST(Supplemental, AlternativeDecompositionSuppressed) {
  // Grand = G1 + G2 with G1 = a+b, G2 = c+d already detected. Removing the
  // group totals exposes grand = a+b+c+d, which must not be reported: the
  // grand aggregate is already claimed by a same-function aggregation.
  const auto grid = MakeNumeric({
      {"10", "3", "1", "2", "7", "3", "4"},
      {"14", "5", "2", "3", "9", "4", "5"},
      {"22", "9", "4", "5", "13", "6", "7"},
  });
  IndividualConfig individual;
  individual.error_level = 0.0;
  const auto detected =
      DetectIndividualRowwise(grid, AggregationFunction::kSum, individual);
  ASSERT_TRUE(Contains(detected, Agg(0, 0, {1, 4}, AggregationFunction::kSum)));

  SupplementalConfig config = Config();
  config.functions = {AggregationFunction::kSum};
  const auto supplemental = DetectSupplementalRowwise(grid, config, detected);
  EXPECT_FALSE(
      Contains(supplemental, Agg(0, 0, {2, 3, 5, 6}, AggregationFunction::kSum)));
  EXPECT_FALSE(
      Contains(supplemental, Agg(0, 0, {1, 5, 6}, AggregationFunction::kSum)));
  EXPECT_FALSE(
      Contains(supplemental, Agg(0, 0, {2, 3, 4}, AggregationFunction::kSum)));
}

TEST(Supplemental, ConfigurationCapRespected) {
  // Many cumulative aggregates: the enumeration must stay bounded. This is a
  // smoke test that it terminates quickly with a tiny cap.
  const auto grid = MakeNumeric({
      {"3", "1", "2", "7", "3", "4", "11", "5", "6", "15", "7", "8"},
      {"5", "2", "3", "9", "4", "5", "13", "6", "7", "17", "8", "9"},
  });
  IndividualConfig individual;
  individual.error_level = 0.0;
  const auto detected =
      DetectIndividualRowwise(grid, AggregationFunction::kSum, individual);
  SupplementalConfig config = Config();
  config.functions = {AggregationFunction::kSum};
  config.max_configurations = 4;
  const auto supplemental = DetectSupplementalRowwise(grid, config, detected);
  SUCCEED();  // termination and no crash is the property under test
}

TEST(Supplemental, FullPipelineDetectsInterrupt) {
  // End-to-end check through AggreCol::Detect with the supplemental stage on
  // and off (the Fig. 8 recall-at-S effect).
  AggreColConfig with;
  with.error_levels.fill(0.0);
  with.detect_columns = false;
  with.functions = {AggregationFunction::kSum, AggregationFunction::kAverage};
  AggreColConfig without = with;
  without.run_supplemental = false;

  const auto grid = InterruptGrid();
  const auto full = AggreCol(with).Detect(grid);
  const auto partial = AggreCol(without).Detect(grid);
  EXPECT_TRUE(
      Contains(full.aggregations, Agg(1, 0, {2, 3, 4}, AggregationFunction::kSum)));
  EXPECT_FALSE(
      Contains(partial.aggregations, Agg(1, 0, {2, 3, 4}, AggregationFunction::kSum)));
}

TEST(Supplemental, MoreCumulativeAggregateColumnsThanSubsetBits) {
  // 65 cumulative aggregate columns: one more than a 64-bit subset mask can
  // address. The columns past the 64th are removed only in the all-excluded
  // configuration; subset bits are never shifted past bit 63 (the sanitizer
  // job runs this test under UBSan).
  std::vector<std::vector<std::string>> rows(2);
  for (int col = 0; col < 70; ++col) {
    rows[0].push_back(std::to_string(col + 1));
    rows[1].push_back(std::to_string(2 * col + 1));
  }
  const auto grid = numfmt::NumericGrid::FromGrid(
      csv::Grid(rows), numfmt::NumberFormat::kCommaDot);
  std::vector<Aggregation> detected;
  for (int col = 0; col < 65; ++col) {
    detected.push_back(Agg(0, col, {68, 69}, AggregationFunction::kSum));
  }
  SupplementalConfig config = Config();
  config.functions = {AggregationFunction::kSum};
  for (const auto& aggregation :
       DetectSupplementalRowwise(grid, config, detected)) {
    EXPECT_FALSE(Contains(detected, aggregation)) << ToString(aggregation);
  }
}

// Stage 3 on `view`, fed with the stage-1 + stage-2 results exactly as
// AggreCol::Detect feeds it under the default configuration. Returns the
// supplemental output; `detected_count` receives the size of its input.
std::vector<Aggregation> RunDefaultStage3(const numfmt::AxisView& view,
                                          size_t* detected_count) {
  const AggreColConfig defaults;
  std::vector<Aggregation> individual;
  for (AggregationFunction function : defaults.functions) {
    IndividualConfig config;
    config.error_level = defaults.error_level(function);
    config.coverage = defaults.coverage;
    config.window_size = defaults.window_size;
    const auto found = DetectIndividualRowwise(view, function, config);
    individual.insert(individual.end(), found.begin(), found.end());
  }
  const auto detected = CollectivePrune(view, individual);
  *detected_count += detected.size();

  SupplementalConfig config;
  config.functions = defaults.functions;
  config.error_levels = defaults.error_levels;
  config.coverage = defaults.coverage;
  config.window_size = defaults.window_size;
  config.max_configurations = defaults.max_configurations;
  auto returned = DetectSupplementalRowwise(view, config, detected);

  std::vector<Aggregation> sorted = detected;
  std::sort(sorted.begin(), sorted.end(), AggregationLess);
  for (const auto& aggregation : returned) {
    EXPECT_FALSE(std::binary_search(sorted.begin(), sorted.end(), aggregation,
                                    AggregationLess))
        << "already detected: " << ToString(aggregation);
  }
  return returned;
}

// The final filter that drops already-detected aggregations from stage 3's
// pruned joint set used to be one linear search of `detected` per pruned
// result, O(n*m) on tall files; it is a sorted lookup now. These pins are
// the linear filter's output.
TEST(Supplemental, TallFileOutputPinned) {
  // A 1k-row tall file (the generator's big-file plan, seed 4242): thousands
  // of detected row-axis aggregations reach the filter and all of them are
  // filtered out again.
  datagen::GeneratorProfile profile;
  profile.p_no_aggregation = 0.0;
  profile.p_tiny_file = 0.0;
  profile.p_second_table = 0.0;
  profile.p_big_file = 1.0;
  profile.big_file_rows = 1000;
  const auto file = datagen::GenerateFile(profile, 4242, "tall.csv");
  const auto grid = numfmt::NumericGrid::FromGrid(file.grid, file.format);
  size_t detected = 0;
  EXPECT_TRUE(RunDefaultStage3(numfmt::AxisView::Rows(grid), &detected).empty());
  EXPECT_EQ(detected, 2871u);
  // The column axis detects nothing on this file.
  EXPECT_TRUE(
      RunDefaultStage3(numfmt::AxisView::Columns(grid), &detected).empty());
  EXPECT_EQ(detected, 2871u);
}

TEST(Supplemental, MixedTallFileDetectionPinned) {
  // The 2.5k-row tall file of the `mixed` pipeline workload (big-file plan,
  // seed 4242, 17 columns) through the whole detector. Its column-axis lines
  // are 2.5k cells long, the regime where stage 1 bisects range sizes. The
  // digests cover every result of every stage, error bits included, as the
  // linear range-size walk produced them.
  datagen::GeneratorProfile profile;
  profile.p_no_aggregation = 0.0;
  profile.p_tiny_file = 0.0;
  profile.p_second_table = 0.0;
  profile.p_big_file = 1.0;
  profile.big_file_rows = 2500;
  const auto file = datagen::GenerateFile(profile, 4242, "tall.csv");
  const DetectionResult result = AggreCol().Detect(file.grid);
  EXPECT_EQ(result.individual_stage.size(), 7185u);
  EXPECT_EQ(Digest(result.individual_stage), 0xdfa74111b179e32bULL)
      << std::hex << Digest(result.individual_stage);
  EXPECT_EQ(result.collective_stage.size(), 7185u);
  EXPECT_EQ(Digest(result.collective_stage), 0xdfa74111b179e32bULL)
      << std::hex << Digest(result.collective_stage);
  EXPECT_EQ(result.aggregations.size(), 7185u);
  EXPECT_EQ(Digest(result.aggregations), 0xdfa74111b179e32bULL)
      << std::hex << Digest(result.aggregations);
}

TEST(Supplemental, SmallCorpusOutputPinned) {
  // A corpus where stage 3 does recover aggregations, both axes per file.
  size_t detected = 0;
  std::vector<Aggregation> returned;
  for (const auto& file : datagen::GenerateSmallCorpus(20, 8)) {
    const auto grid = numfmt::NumericGrid::FromGrid(file.grid, file.format);
    for (const auto& view :
         {numfmt::AxisView::Rows(grid), numfmt::AxisView::Columns(grid)}) {
      const auto found = RunDefaultStage3(view, &detected);
      returned.insert(returned.end(), found.begin(), found.end());
    }
  }
  EXPECT_EQ(detected, 1224u);
  EXPECT_EQ(returned.size(), 35u);
  EXPECT_EQ(Digest(returned), 0xe94148a5a6a77ceeULL) << std::hex << Digest(returned);
}

// Four (total, part, part) sum groups side by side, so stage 3 removes up to
// four cumulative aggregate columns and a round builds 2^4 - 1 derived
// files, plus noise columns that give the window functions candidates.
numfmt::NumericGrid FourGroupGrid() {
  std::mt19937 rng(0x4C3D);
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::string> row;
    for (int group = 0; group < 4; ++group) {
      const int a = 1 + static_cast<int>(rng() % 50);
      const int b = 1 + static_cast<int>(rng() % 50);
      row.push_back(std::to_string(a + b));
      row.push_back(std::to_string(a));
      row.push_back(std::to_string(b));
    }
    for (int noise = 0; noise < 4; ++noise) {
      row.push_back(std::to_string(1 + static_cast<int>(rng() % 8)));
    }
    rows.push_back(std::move(row));
  }
  return numfmt::NumericGrid::FromGrid(csv::Grid(rows),
                                       numfmt::NumberFormat::kCommaDot);
}

// Stage 3 of the default configuration on `view`, with its derived files on
// `pool` (nullptr: sequential): the returned aggregations and every obs
// counter the stage-3 call moved.
std::pair<std::vector<Aggregation>, std::map<std::string, uint64_t>>
RunStage3OnPool(const numfmt::AxisView& view,
                const std::vector<Aggregation>& detected,
                util::ThreadPool* pool) {
  const AggreColConfig defaults;
  SupplementalConfig config;
  config.functions = defaults.functions;
  config.error_levels = defaults.error_levels;
  config.coverage = defaults.coverage;
  config.window_size = defaults.window_size;
  config.max_configurations = defaults.max_configurations;
  config.pool = pool;
  obs::ScopedMetrics scoped;
  auto returned = DetectSupplementalRowwise(view, config, detected);
  std::map<std::string, uint64_t> counters;
  for (const auto& [name, value] : obs::Registry::Instance().Snapshot().counters) {
    if (value != 0) counters[name] = value;
  }
  return {std::move(returned), std::move(counters)};
}

TEST(Supplemental, PooledDerivedRunsMatchSequential) {
  // Stage 3 runs a round's derived files concurrently on the pool, and
  // those runs share one pattern ledger per function, reading and filling
  // it at once (the TSan job runs this test). Results, error bits and every
  // counter — ledger.* included — must not depend on that.
  const auto grid = FourGroupGrid();
  const AggreColConfig defaults;
  std::vector<Aggregation> individual;
  for (AggregationFunction function : defaults.functions) {
    IndividualConfig config;
    config.error_level = defaults.error_level(function);
    config.coverage = defaults.coverage;
    config.window_size = defaults.window_size;
    const auto found = DetectIndividualRowwise(grid, function, config);
    individual.insert(individual.end(), found.begin(), found.end());
  }
  const auto detected = CollectivePrune(grid, individual);

  const auto [sequential, sequential_counters] =
      RunStage3OnPool(grid, detected, nullptr);
  if (obs::CompiledIn()) {
    // The premise: some round builds at least 8 derived files, so the pool
    // has several concurrent runs to interleave.
    ASSERT_GT(sequential_counters.count("stage3.rounds"), 0u);
    EXPECT_GE(sequential_counters.at("stage3.configurations"),
              8 * sequential_counters.at("stage3.rounds"));
    EXPECT_GT(sequential_counters.count("ledger.patterns.reused"), 0u);
  }
  util::ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto [pooled, pooled_counters] = RunStage3OnPool(grid, detected, &pool);
    ASSERT_EQ(pooled, sequential);
    EXPECT_EQ(Digest(pooled), Digest(sequential));
    EXPECT_EQ(pooled_counters, sequential_counters);
  }
}

}  // namespace
}  // namespace aggrecol::core
