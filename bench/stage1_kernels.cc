// Stage-1 hot-path kernel benchmark: the transpose-free column-axis view and
// the prefix-sum adjacency scan against the retained naive references.
//
//   column_axis          — the full column-axis stage-1 scan (all five
//                          functions) per VALIDATION file:
//                          NumericGrid::Transposed() deep copy + naive scans
//                          vs zero-copy AxisView::Columns() + kernels.
//   wide_adjacency       — sum/average candidate generation on synthetic wide
//                          files (many columns per row), the regime the
//                          prefix-sum screen targets.
//   window_ratio_columns — division/relative-change column-axis window scans
//                          on synthetic homogeneous-column files with planted
//                          exact ratios: the whole-window batch screen's
//                          target regime.
//   extension_screen     — stage-1/3 pattern extension over synthetic grids
//                          with several planted patterns: ExtendAggregations'
//                          shared-LineIndex screens vs the naive walk.
//   stage2_collective    — the stage-2 collective conflict walk over
//                          synthetic candidate sets: sorted-range group
//                          predicates vs the linear-scan reference.
//   long_line_adjacency  — sum/average adjacency scans on the column axis
//                          of a 2.5k-row tall file: lines thousands of cells
//                          long, where the kernel bisects range sizes.
//
// Prints a human-readable table; `--json [PATH]` additionally writes the
// machine-readable BENCH_stage1.json consumed by bench/check_regression.py
// (default path: BENCH_stage1.json in the current directory). Both scans are
// bit-identical by construction (tests/stage1_kernel_test.cc), so candidate
// counts must agree between the naive and kernel variants; the benchmark
// aborts if they do not.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/adjacency_strategy.h"
#include "core/collective_detector.h"
#include "core/extension.h"
#include "core/window_strategy.h"
#include "csv/grid.h"
#include "datagen/file_generator.h"
#include "numfmt/axis_view.h"
#include "numfmt/numeric_grid.h"
#include "util/stopwatch.h"

namespace aggrecol {
namespace {

using core::AggregationFunction;

struct VariantStats {
  std::vector<double> per_file_us;
  double total_seconds = 0.0;
  long long candidates = 0;

  void Record(double seconds, size_t found) {
    per_file_us.push_back(seconds * 1e6);
    total_seconds += seconds;
    candidates += static_cast<long long>(found);
  }

  double Percentile(double p) const {
    std::vector<double> sorted = per_file_us;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.empty()) return 0.0;
    // Linear interpolation on the fractional rank p * (N - 1). The previous
    // floor-truncated nearest-rank index min(N-1, floor(p*N)) hit N-1 for
    // p = 0.95 whenever N < 20, silently reporting p95 == max on every small
    // corpus (including the 24-file synthetic suites below).
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double fraction = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * fraction;
  }

  double CandidatesPerSecond() const {
    return total_seconds > 0.0 ? static_cast<double>(candidates) / total_seconds : 0.0;
  }
};

struct Comparison {
  const char* name;
  int files = 0;
  VariantStats naive;
  VariantStats kernel;

  double Speedup() const {
    return kernel.total_seconds > 0.0 ? naive.total_seconds / kernel.total_seconds
                                      : 0.0;
  }
};

// Best-of-3 timing: runs `fn` three times and returns the fastest wall time.
// The synthetic comparisons below are small (milliseconds per variant), where
// one scheduler hiccup can move a single-shot ratio by tens of percent — and
// their speedups are gated at 10% by bench/check_regression.py.
template <typename Fn>
double MinSeconds(Fn&& fn) {
  util::Stopwatch stopwatch;
  double best = 0.0;
  for (int repetition = 0; repetition < 3; ++repetition) {
    stopwatch.Reset();
    fn();
    const double seconds = stopwatch.ElapsedSeconds();
    if (repetition == 0 || seconds < best) best = seconds;
  }
  return best;
}

// One full stage-1 scan of `view`: every function over every line. Returns
// the number of candidates. `use_kernel` selects the implementation.
size_t ScanAllFunctions(const numfmt::AxisView& view, bool use_kernel) {
  const std::vector<bool> active(static_cast<size_t>(view.columns()), true);
  size_t found = 0;
  for (AggregationFunction function : core::kAllFunctions) {
    const bool commutative = core::TraitsOf(function).commutative;
    for (int line = 0; line < view.rows(); ++line) {
      if (commutative) {
        found += (use_kernel
                      ? core::DetectAdjacentCommutative(view, active, line,
                                                        function, 0.0)
                      : core::DetectAdjacentCommutativeNaive(view, active, line,
                                                             function, 0.0))
                     .size();
      } else {
        found += (use_kernel
                      ? core::DetectWindowPairwise(view, active, line, function,
                                                   0.0, 10)
                      : core::DetectWindowPairwiseNaive(view, active, line,
                                                        function, 0.0, 10))
                     .size();
      }
    }
  }
  return found;
}

// Column-axis comparison over the VALIDATION corpus: the naive variant pays
// the transposed deep copy (what the pipeline used to materialize) plus the
// naive scans; the kernel variant runs the zero-copy view and the stage-1
// kernels.
Comparison BenchColumnAxis() {
  Comparison comparison;
  comparison.name = "column_axis";
  util::Stopwatch stopwatch;
  for (const auto& file : bench::ValidationFiles()) {
    const auto grid = numfmt::NumericGrid::FromGrid(file.grid, file.format);
    ++comparison.files;

    stopwatch.Reset();
    const numfmt::NumericGrid transposed = grid.Transposed();
    const size_t naive_found = ScanAllFunctions(transposed, /*use_kernel=*/false);
    comparison.naive.Record(stopwatch.ElapsedSeconds(), naive_found);

    stopwatch.Reset();
    const size_t kernel_found =
        ScanAllFunctions(numfmt::AxisView::Columns(grid), /*use_kernel=*/true);
    comparison.kernel.Record(stopwatch.ElapsedSeconds(), kernel_found);

    if (naive_found != kernel_found) {
      std::fprintf(stderr, "FATAL: candidate mismatch on %s: naive=%zu kernel=%zu\n",
                   file.name.c_str(), naive_found, kernel_found);
      std::exit(1);
    }
  }
  return comparison;
}

// Wide-file sum/average comparison: synthetic grids with hundreds of columns
// per row and planted sums, scanned row-wise with the commutative detectors
// only — the candidate-generation path the prefix-sum kernel accelerates.
Comparison BenchWideAdjacency() {
  constexpr int kFiles = 24;
  constexpr int kRows = 32;
  constexpr int kColumns = 256;

  Comparison comparison;
  comparison.name = "wide_adjacency";
  std::mt19937 rng(0x5747E1);
  for (int f = 0; f < kFiles; ++f) {
    csv::Grid raw(kRows, kColumns);
    for (int i = 0; i < kRows; ++i) {
      long long sum = 0;
      for (int j = 1; j < kColumns; ++j) {
        const int value = 1 + static_cast<int>(rng() % 99);
        raw.set(i, j, std::to_string(value));
        if (j <= 8) sum += value;
      }
      raw.set(i, 0, std::to_string(sum));  // planted: col 0 = sum(cols 1..8)
    }
    const auto grid =
        numfmt::NumericGrid::FromGrid(raw, numfmt::NumberFormat::kCommaDot);
    const numfmt::AxisView view = numfmt::AxisView::Rows(grid);
    const std::vector<bool> active(static_cast<size_t>(view.columns()), true);
    ++comparison.files;

    const AggregationFunction commutative[] = {AggregationFunction::kSum,
                                               AggregationFunction::kAverage};
    size_t naive_found = 0;
    const double naive_seconds = MinSeconds([&] {
      naive_found = 0;
      for (AggregationFunction function : commutative) {
        for (int line = 0; line < view.rows(); ++line) {
          naive_found += core::DetectAdjacentCommutativeNaive(view, active, line,
                                                              function, 0.0)
                             .size();
        }
      }
    });
    comparison.naive.Record(naive_seconds, naive_found);

    size_t kernel_found = 0;
    const double kernel_seconds = MinSeconds([&] {
      kernel_found = 0;
      for (AggregationFunction function : commutative) {
        for (int line = 0; line < view.rows(); ++line) {
          kernel_found +=
              core::DetectAdjacentCommutative(view, active, line, function, 0.0)
                  .size();
        }
      }
    });
    comparison.kernel.Record(kernel_seconds, kernel_found);

    if (naive_found != kernel_found) {
      std::fprintf(stderr,
                   "FATAL: candidate mismatch on wide file %d: naive=%zu kernel=%zu\n",
                   f, naive_found, kernel_found);
      std::exit(1);
    }
  }
  return comparison;
}

// Division/relative-change window scans on the column axis: synthetic files
// whose columns are homogeneous large values (1000..1099) with one exact
// division (1056/1024 = 1.03125) and one exact relative change (1/32)
// planted per column. Almost every window around a large aggregate is a
// certain miss the batch screen rejects in O(1); the planted ratio cells keep
// both variants honest about finding real candidates.
Comparison BenchWindowRatioColumns() {
  constexpr int kFiles = 24;
  constexpr int kRows = 128;
  constexpr int kColumns = 48;
  const core::AggregationFunction kFunctions[] = {
      AggregationFunction::kDivision, AggregationFunction::kRelativeChange};

  Comparison comparison;
  comparison.name = "window_ratio_columns";
  std::mt19937 rng(0xD1151011);
  for (int f = 0; f < kFiles; ++f) {
    csv::Grid raw(kRows, kColumns);
    for (int j = 0; j < kColumns; ++j) {
      for (int i = 0; i < kRows; ++i) {
        raw.set(i, j, std::to_string(1000 + static_cast<int>(rng() % 100)));
      }
      raw.set(10, j, "1.03125");  // = 1056 / 1024, exact in binary
      raw.set(11, j, "1056");
      raw.set(12, j, "1024");
      raw.set(20, j, "0.03125");  // = (1056 - 1024) / 1024, exact in binary
      raw.set(21, j, "1024");
      raw.set(22, j, "1056");
    }
    const auto grid =
        numfmt::NumericGrid::FromGrid(raw, numfmt::NumberFormat::kCommaDot);
    ++comparison.files;

    const std::vector<bool> active(static_cast<size_t>(kRows), true);

    size_t naive_found = 0;
    const double naive_seconds = MinSeconds([&] {
      const numfmt::NumericGrid transposed = grid.Transposed();
      naive_found = 0;
      for (AggregationFunction function : kFunctions) {
        for (int line = 0; line < transposed.rows(); ++line) {
          naive_found += core::DetectWindowPairwiseNaive(transposed, active, line,
                                                         function, 0.0, 10)
                             .size();
        }
      }
    });
    comparison.naive.Record(naive_seconds, naive_found);

    size_t kernel_found = 0;
    const double kernel_seconds = MinSeconds([&] {
      const numfmt::AxisView view = numfmt::AxisView::Columns(grid);
      kernel_found = 0;
      for (AggregationFunction function : kFunctions) {
        for (int line = 0; line < view.rows(); ++line) {
          kernel_found +=
              core::DetectWindowPairwise(view, active, line, function, 0.0, 10)
                  .size();
        }
      }
    });
    comparison.kernel.Record(kernel_seconds, kernel_found);

    if (naive_found != kernel_found) {
      std::fprintf(stderr,
                   "FATAL: candidate mismatch on ratio file %d: naive=%zu kernel=%zu\n",
                   f, naive_found, kernel_found);
      std::exit(1);
    }
  }
  return comparison;
}

// Stage-1/3 pattern extension: running-total grids — ten nested sum patterns
// of increasing length over a shared value block, plus pairwise triples —
// valid only in the first few rows, the realistic extension regime where
// most probed rows are misses. The screened ExtendAggregations compacts each
// row once into a LineIndex shared by all thirteen patterns and rejects miss
// rows in O(1) per pattern; the naive walk re-gathers and re-sums every
// pattern's range cells (730+ per row) from the raw view.
Comparison BenchExtensionScreen() {
  constexpr int kFiles = 16;
  constexpr int kRows = 96;
  constexpr int kColumns = 160;
  constexpr int kPlantedRows = 8;  // rows 0..7 match; the rest are misses
  constexpr int kSumPatterns = 10;
  // Sum pattern i aggregates cols [0, 10 + 14*i): nested ranges 10..136 long.
  auto sum_length = [](int i) { return 10 + 14 * i; };

  Comparison comparison;
  comparison.name = "extension_screen";
  std::mt19937 rng(0xE87E4D);
  for (int f = 0; f < kFiles; ++f) {
    csv::Grid raw(kRows, kColumns);
    for (int i = 0; i < kRows; ++i) {
      const bool planted = i < kPlantedRows;
      long long running = 0;
      std::vector<long long> prefix(141, 0);
      for (int j = 0; j < 140; ++j) {
        const int value = 1 + static_cast<int>(rng() % 99);
        raw.set(i, j, std::to_string(value));
        running += value;
        prefix[static_cast<size_t>(j) + 1] = running;
      }
      for (int s = 0; s < kSumPatterns; ++s) {
        const long long sum = prefix[static_cast<size_t>(sum_length(s))];
        raw.set(i, 140 + s,
                std::to_string(planted ? sum : sum + 7 +
                                                   static_cast<int>(rng() % 999)));
      }
      const int a = 1 + static_cast<int>(rng() % 999);
      const int b = 1 + static_cast<int>(rng() % 999);
      raw.set(i, 151, std::to_string(a));
      raw.set(i, 152, std::to_string(b));
      raw.set(i, 150, std::to_string(planted ? a - b : a - b + 5));
      raw.set(i, 153, planted ? "1.03125" : "7.5");  // col 153 = col 154 / col 155
      raw.set(i, 154, "1056");
      raw.set(i, 155, "1024");
      raw.set(i, 156, planted ? "0.03125" : "9.25");  // (158 - 157) / 157
      raw.set(i, 157, "1024");
      raw.set(i, 158, "1056");
      raw.set(i, 159, std::to_string(1 + static_cast<int>(rng() % 999)));
    }
    const auto grid =
        numfmt::NumericGrid::FromGrid(raw, numfmt::NumberFormat::kCommaDot);
    const numfmt::AxisView view = numfmt::AxisView::Rows(grid);
    const std::vector<bool> active(static_cast<size_t>(view.columns()), true);
    ++comparison.files;

    // Seeds: each planted pattern detected in rows 0 and 1 only; extension
    // must recover the remaining planted rows and reject the rest.
    std::vector<core::Aggregation> detected;
    auto seed = [&detected](int aggregate, std::vector<int> range,
                            AggregationFunction function) {
      for (int row : {0, 1}) {
        core::Aggregation aggregation;
        aggregation.axis = core::Axis::kRow;
        aggregation.line = row;
        aggregation.aggregate = aggregate;
        aggregation.range = range;
        aggregation.function = function;
        detected.push_back(std::move(aggregation));
      }
    };
    for (int s = 0; s < kSumPatterns; ++s) {
      std::vector<int> range;
      for (int j = 0; j < sum_length(s); ++j) range.push_back(j);
      seed(140 + s, std::move(range), AggregationFunction::kSum);
    }
    seed(150, {151, 152}, AggregationFunction::kDifference);
    seed(153, {154, 155}, AggregationFunction::kDivision);
    seed(156, {157, 158}, AggregationFunction::kRelativeChange);

    std::vector<core::Aggregation> naive_out;
    const double naive_seconds = MinSeconds(
        [&] { naive_out = core::ExtendAggregationsNaive(view, active, detected, 0.0); });
    comparison.naive.Record(naive_seconds, naive_out.size());

    std::vector<core::Aggregation> kernel_out;
    const double kernel_seconds = MinSeconds(
        [&] { kernel_out = core::ExtendAggregations(view, active, detected, 0.0); });
    comparison.kernel.Record(kernel_seconds, kernel_out.size());

    if (naive_out != kernel_out) {
      std::fprintf(stderr, "FATAL: extension mismatch on file %d\n", f);
      std::exit(1);
    }
  }
  return comparison;
}

// Stage-2 collective conflict walk over synthetic candidate sets modeling
// the column axis of a long file (the "columns" here are the 20000 lines of
// the transposed view). Pattern groups sit in disjoint blocks — four
// aggregates sharing one 200-element range per block — so no conflicts fire,
// the accepted list grows to every non-division group, and the O(groups^2)
// walk's predicate cost is what's measured: per-comparison linear finds over
// the 200-element ranges (naive) vs sorted-range binary searches (kernel).
Comparison BenchStage2Collective() {
  constexpr int kIterations = 20;
  constexpr int kRows = 64;
  constexpr int kColumns = 20000;
  constexpr int kBlock = 250;        // per block: 4 aggregates + 200 range cols
  constexpr int kRangeLength = 200;
  constexpr int kBlocks = kColumns / kBlock;  // 80 blocks, 320 groups

  Comparison comparison;
  comparison.name = "stage2_collective";
  std::mt19937 rng(0x57A6E2);

  csv::Grid raw(kRows, kColumns);
  for (int i = 0; i < kRows; ++i) {
    for (int j = 0; j < kColumns; ++j) {
      raw.set(i, j, std::to_string(1 + static_cast<int>(rng() % 999)));
    }
  }
  const auto grid =
      numfmt::NumericGrid::FromGrid(raw, numfmt::NumberFormat::kCommaDot);
  const numfmt::AxisView view = numfmt::AxisView::Rows(grid);

  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::vector<core::Aggregation> candidates;
    for (int block = 0; block < kBlocks; ++block) {
      const int base = block * kBlock;
      std::vector<int> range;
      for (int j = base + 4; j < base + 4 + kRangeLength; ++j) range.push_back(j);
      for (int g = 0; g < 4; ++g) {
        const AggregationFunction function =
            core::kAllFunctions[static_cast<size_t>(block * 4 + g) %
                                core::kAllFunctions.size()];
        const int members = 1 + static_cast<int>(rng() % 2);
        for (int m = 0; m < members; ++m) {
          core::Aggregation aggregation;
          aggregation.axis = core::Axis::kRow;
          aggregation.line = static_cast<int>(rng() % kRows);
          aggregation.aggregate = base + g;
          aggregation.range = range;
          aggregation.function = function;
          candidates.push_back(std::move(aggregation));
        }
      }
    }
    ++comparison.files;

    std::vector<core::Aggregation> naive_out;
    const double naive_seconds =
        MinSeconds([&] { naive_out = core::CollectivePruneNaive(view, candidates); });
    comparison.naive.Record(naive_seconds, naive_out.size());

    std::vector<core::Aggregation> kernel_out;
    const double kernel_seconds =
        MinSeconds([&] { kernel_out = core::CollectivePrune(view, candidates); });
    comparison.kernel.Record(kernel_seconds, kernel_out.size());

    if (naive_out != kernel_out) {
      std::fprintf(stderr, "FATAL: stage-2 mismatch on iteration %d\n", iteration);
      std::exit(1);
    }
  }
  return comparison;
}

// Long-line sum/average scans: the column axis of the generator's big-file
// plan at 2.5k rows (seed 4242, 17 columns) — the tall file of the `mixed`
// pipeline workload. Each line holds about 2.5k usable cells, so the linear
// walk over range sizes is quadratic per line; the kernel bisects the sizes
// and rejects whole blocks through the prefix min/max table. One sample per
// function, line and variant: the fastest of five naive and 25 kernel scans
// of that line.
Comparison BenchLongLineAdjacency() {
  datagen::GeneratorProfile profile;
  profile.p_no_aggregation = 0.0;
  profile.p_tiny_file = 0.0;
  profile.p_second_table = 0.0;
  profile.p_big_file = 1.0;
  profile.big_file_rows = 2500;
  const auto file = datagen::GenerateFile(profile, 4242, "tall.csv");
  const auto grid = numfmt::NumericGrid::FromGrid(file.grid, file.format);
  const numfmt::AxisView view = numfmt::AxisView::Columns(grid);
  const std::vector<bool> active(static_cast<size_t>(view.columns()), true);

  Comparison comparison;
  comparison.name = "long_line_adjacency";
  comparison.files = 1;
  // A kernel scan of one line takes a few milliseconds, a naive one tens,
  // and a slow spell of a shared host can last seconds and slow the two
  // unequally. So every (function, line) keeps its own fastest time, and
  // each round sweeps all of them with the variants alternating: the
  // samples of one line are spread over the whole section, and a spell has
  // to cover all of them to move its minimum. Spells that do still lower
  // the ratio (docs/PERFORMANCE.md, "The benchmark: bench/stage1_kernels").
  constexpr int kRounds = 5;
  constexpr int kKernelScansPerRound = 5;
  const AggregationFunction functions[] = {AggregationFunction::kSum,
                                           AggregationFunction::kAverage};
  const size_t lines = static_cast<size_t>(view.rows());
  const size_t slots = std::size(functions) * lines;
  std::vector<double> naive_best(slots, 0.0);
  std::vector<double> kernel_best(slots, 0.0);
  std::vector<size_t> naive_found(slots, 0);
  std::vector<size_t> kernel_found(slots, 0);
  util::Stopwatch stopwatch;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t f = 0; f < std::size(functions); ++f) {
      for (int line = 0; line < view.rows(); ++line) {
        const size_t slot = f * lines + static_cast<size_t>(line);
        stopwatch.Reset();
        naive_found[slot] = core::DetectAdjacentCommutativeNaive(
                                view, active, line, functions[f], 0.0)
                                .size();
        const double naive = stopwatch.ElapsedSeconds();
        if (round == 0 || naive < naive_best[slot]) naive_best[slot] = naive;
        for (int sample = 0; sample < kKernelScansPerRound; ++sample) {
          stopwatch.Reset();
          kernel_found[slot] = core::DetectAdjacentCommutative(
                                   view, active, line, functions[f], 0.0)
                                   .size();
          const double kernel = stopwatch.ElapsedSeconds();
          if ((round == 0 && sample == 0) || kernel < kernel_best[slot]) {
            kernel_best[slot] = kernel;
          }
        }
      }
    }
  }
  for (size_t slot = 0; slot < slots; ++slot) {
    comparison.naive.Record(naive_best[slot], naive_found[slot]);
    comparison.kernel.Record(kernel_best[slot], kernel_found[slot]);
    if (naive_found[slot] != kernel_found[slot]) {
      std::fprintf(stderr,
                   "FATAL: candidate mismatch on the tall file (%s, column "
                   "%zu): naive=%zu kernel=%zu\n",
                   core::ToString(functions[slot / lines]).c_str(),
                   slot % lines, naive_found[slot], kernel_found[slot]);
      std::exit(1);
    }
  }
  return comparison;
}

void PrintComparison(const Comparison& comparison) {
  std::printf("%s (%d files)\n", comparison.name, comparison.files);
  std::printf("  %-8s %10s %10s %14s %16s\n", "variant", "p50 us", "p95 us",
              "total ms", "candidates/s");
  auto row = [](const char* label, const VariantStats& stats) {
    std::printf("  %-8s %10.1f %10.1f %14.2f %16.0f\n", label,
                stats.Percentile(0.50), stats.Percentile(0.95),
                stats.total_seconds * 1e3, stats.CandidatesPerSecond());
  };
  row("naive", comparison.naive);
  row("kernel", comparison.kernel);
  std::printf("  speedup: %.2fx (candidates: %lld, identical by construction)\n\n",
              comparison.Speedup(), comparison.kernel.candidates);
}

void WriteVariantJson(std::FILE* out, const char* label, const VariantStats& stats) {
  std::fprintf(out,
               "    \"%s\": {\"p50_us\": %.3f, \"p95_us\": %.3f, "
               "\"total_ms\": %.3f, \"candidates\": %lld, "
               "\"candidates_per_sec\": %.1f}",
               label, stats.Percentile(0.50), stats.Percentile(0.95),
               stats.total_seconds * 1e3, stats.candidates,
               stats.CandidatesPerSecond());
}

void WriteJson(const std::string& path, const std::vector<Comparison>& comparisons) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"stage1_kernels\",\n");
  for (size_t c = 0; c < comparisons.size(); ++c) {
    const Comparison& comparison = comparisons[c];
    std::fprintf(out, "  \"%s\": {\n    \"files\": %d,\n", comparison.name,
                 comparison.files);
    WriteVariantJson(out, "naive", comparison.naive);
    std::fprintf(out, ",\n");
    WriteVariantJson(out, "kernel", comparison.kernel);
    std::fprintf(out, ",\n    \"speedup\": %.3f\n  }%s\n", comparison.Speedup(),
                 c + 1 < comparisons.size() ? "," : "");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace aggrecol

int main(int argc, char** argv) {
  using namespace aggrecol;

  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--json") {
      json_path = a + 1 < argc ? argv[a + 1] : "BENCH_stage1.json";
      ++a;
    }
  }

  std::printf(
      "Stage-1 kernels: transpose-free AxisView + prefix-sum adjacency scan\n"
      "vs the retained naive references (error level 0, window 10).\n\n");

  const std::vector<Comparison> comparisons = {
      BenchColumnAxis(), BenchWideAdjacency(), BenchWindowRatioColumns(),
      BenchExtensionScreen(), BenchStage2Collective(), BenchLongLineAdjacency()};
  for (const auto& comparison : comparisons) PrintComparison(comparison);
  if (!json_path.empty()) WriteJson(json_path, comparisons);
  return 0;
}
