// Parse-throughput benchmark: the zero-copy structural ingest (MappedFile +
// SWAR/SIMD scanner + arena grid, csv/parser.h ParseGrid) against the
// retained reference state machine (ParseGridReference).
//
//   wide_numeric — many narrow numeric columns per row, the verbose-CSV
//                  regime the paper's corpus lives in and the shape where
//                  per-cell allocation dominates the old path.
//   quoted_mixed — quote-heavy text with embedded delimiters, doubled
//                  quotes, and CRLF endings: the worst case for the
//                  structural scanner (densest structural bytes).
//
// Both corpora are generated deterministically in memory, so byte counts
// are stable across machines and only wall-clock varies. For each variant
// the harness reports a cold pass (first touch of each file, allocator and
// cache unwarmed) and a warm rate (repeated parses); the gated quantity is
// the warm MB/s ratio, reported under the `speedup` key that
// bench/check_regression.py ratio-gates — both variants run in the same
// process on the same machine, so the ratio is hardware-independent.
// Grids from the two paths are compared for equality on every file; a
// mismatch aborts the benchmark (the differential contract of
// docs/INGEST.md, enforced here too).
//
// Prints a human-readable table; `--json [PATH]` additionally writes
// BENCH_parse.json (schema documented in docs/PERFORMANCE.md).
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "csv/parser.h"
#include "csv/scanner.h"
#include "tests/oracle/csv_reference.h"
#include "util/stopwatch.h"

namespace aggrecol {
namespace {

constexpr int kWarmRepeats = 8;
// Best-of-N warm trials: the gated quantity is a ratio of min-times, which
// is far more stable under CI-runner load than a single-shot measurement
// (transient scheduler noise only ever makes a trial slower, never faster).
constexpr int kWarmTrials = 3;
const csv::Dialect kDialect{',', '"'};

std::vector<std::string> MakeWideNumericCorpus() {
  constexpr int kFiles = 16;
  constexpr int kRows = 512;
  constexpr int kColumns = 128;
  std::mt19937 rng(0x9A25E1);
  std::vector<std::string> corpus;
  for (int f = 0; f < kFiles; ++f) {
    std::string text;
    text.reserve(static_cast<size_t>(kRows) * kColumns * 5);
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < kColumns; ++j) {
        if (j > 0) text += ',';
        text += std::to_string(rng() % 100000);
      }
      text += '\n';
    }
    corpus.push_back(std::move(text));
  }
  return corpus;
}

std::vector<std::string> MakeQuotedMixedCorpus() {
  constexpr int kFiles = 16;
  constexpr int kRows = 768;
  constexpr int kColumns = 24;
  static constexpr const char* kWords[] = {"alpha", "beta, inc.", "say \"hi\"",
                                           "gamma", "delta\nline", "plain"};
  std::mt19937 rng(0xC0FFEE);
  std::vector<std::string> corpus;
  for (int f = 0; f < kFiles; ++f) {
    std::string text;
    for (int i = 0; i < kRows; ++i) {
      for (int j = 0; j < kColumns; ++j) {
        if (j > 0) text += ',';
        if (j % 3 == 0) {
          const std::string word = kWords[rng() % 6];
          text += '"';
          for (char c : word) {
            text += c;
            if (c == '"') text += '"';  // double embedded quotes
          }
          text += '"';
        } else {
          text += std::to_string(rng() % 1000);
        }
      }
      text += "\r\n";
    }
    corpus.push_back(std::move(text));
  }
  return corpus;
}

struct VariantStats {
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;  // total over kWarmRepeats passes
  long long rows = 0;         // rows parsed per single corpus pass

  double ColdMbPerSec(double bytes) const {
    return cold_seconds > 0.0 ? bytes / 1e6 / cold_seconds : 0.0;
  }
  double WarmMbPerSec(double bytes) const {
    return warm_seconds > 0.0 ? bytes * kWarmRepeats / 1e6 / warm_seconds : 0.0;
  }
  double WarmRowsPerSec() const {
    return warm_seconds > 0.0
               ? static_cast<double>(rows) * kWarmRepeats / warm_seconds
               : 0.0;
  }
};

struct Comparison {
  const char* name;
  int files = 0;
  double bytes = 0.0;
  VariantStats reference;
  VariantStats zero_copy;

  double Speedup() const {
    return reference.warm_seconds > 0.0 && zero_copy.warm_seconds > 0.0
               ? WarmRatio()
               : 0.0;
  }
  double WarmRatio() const {
    return zero_copy.WarmMbPerSec(bytes) / reference.WarmMbPerSec(bytes);
  }
};

template <typename ParseFn>
VariantStats Measure(const std::vector<std::string>& corpus, ParseFn parse) {
  VariantStats stats;
  util::Stopwatch stopwatch;

  stopwatch.Reset();
  for (const auto& text : corpus) {
    const csv::Grid grid = parse(text);
    stats.rows += grid.rows();
  }
  stats.cold_seconds = stopwatch.ElapsedSeconds();

  for (int trial = 0; trial < kWarmTrials; ++trial) {
    stopwatch.Reset();
    for (int repeat = 0; repeat < kWarmRepeats; ++repeat) {
      for (const auto& text : corpus) {
        const csv::Grid grid = parse(text);
        if (grid.rows() == 0) std::abort();  // keep the parse un-elided
      }
    }
    const double elapsed = stopwatch.ElapsedSeconds();
    if (trial == 0 || elapsed < stats.warm_seconds) {
      stats.warm_seconds = elapsed;
    }
  }
  return stats;
}

Comparison BenchCorpus(const char* name, const std::vector<std::string>& corpus) {
  Comparison comparison;
  comparison.name = name;
  comparison.files = static_cast<int>(corpus.size());
  for (const auto& text : corpus) {
    comparison.bytes += static_cast<double>(text.size());
    // Differential check before timing: both paths must agree exactly.
    if (!(csv::ParseGrid(text, kDialect) ==
          csv::ParseGridReference(text, kDialect))) {
      std::fprintf(stderr, "FATAL: zero-copy/reference divergence in %s\n", name);
      std::exit(1);
    }
  }
  comparison.reference = Measure(corpus, [](const std::string& text) {
    return csv::ParseGridReference(text, kDialect);
  });
  comparison.zero_copy = Measure(corpus, [](const std::string& text) {
    return csv::ParseGrid(text, kDialect);
  });
  return comparison;
}

void PrintComparison(const Comparison& comparison) {
  std::printf("%s (%d files, %.1f MB)\n", comparison.name, comparison.files,
              comparison.bytes / 1e6);
  std::printf("  %-10s %14s %14s %16s\n", "variant", "cold MB/s", "warm MB/s",
              "warm rows/s");
  auto row = [&](const char* label, const VariantStats& stats) {
    std::printf("  %-10s %14.1f %14.1f %16.0f\n", label,
                stats.ColdMbPerSec(comparison.bytes),
                stats.WarmMbPerSec(comparison.bytes), stats.WarmRowsPerSec());
  };
  row("reference", comparison.reference);
  row("zero_copy", comparison.zero_copy);
  std::printf("  speedup: %.2fx (warm MB/s ratio, grids identical)\n\n",
              comparison.Speedup());
}

void WriteVariantJson(std::FILE* out, const char* label, const Comparison& c,
                      const VariantStats& stats) {
  std::fprintf(out,
               "    \"%s\": {\"cold_mb_per_s\": %.1f, \"warm_mb_per_s\": %.1f, "
               "\"warm_rows_per_s\": %.0f}",
               label, stats.ColdMbPerSec(c.bytes), stats.WarmMbPerSec(c.bytes),
               stats.WarmRowsPerSec());
}

void WriteJson(const std::string& path, const std::vector<Comparison>& comparisons) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"parse_throughput\",\n");
  std::fprintf(out, "  \"scan_tier\": \"%.*s\",\n",
               static_cast<int>(csv::ToString(csv::ActiveScanTier()).size()),
               csv::ToString(csv::ActiveScanTier()).data());
  for (size_t c = 0; c < comparisons.size(); ++c) {
    const Comparison& comparison = comparisons[c];
    std::fprintf(out, "  \"%s\": {\n    \"files\": %d,\n    \"bytes\": %.0f,\n",
                 comparison.name, comparison.files, comparison.bytes);
    WriteVariantJson(out, "reference", comparison, comparison.reference);
    std::fprintf(out, ",\n");
    WriteVariantJson(out, "zero_copy", comparison, comparison.zero_copy);
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
      json_path = a + 1 < argc ? argv[a + 1] : "BENCH_parse.json";
      ++a;
    }
  }

  std::printf(
      "Parse throughput: zero-copy structural ingest (scan tier %.*s) vs the\n"
      "retained reference state machine, deterministic in-memory corpora.\n\n",
      static_cast<int>(csv::ToString(csv::ActiveScanTier()).size()),
      csv::ToString(csv::ActiveScanTier()).data());

  const std::vector<Comparison> comparisons = {
      BenchCorpus("wide_numeric", MakeWideNumericCorpus()),
      BenchCorpus("quoted_mixed", MakeQuotedMixedCorpus()),
  };
  for (const auto& comparison : comparisons) PrintComparison(comparison);
  if (!json_path.empty()) WriteJson(json_path, comparisons);
  return 0;
}
