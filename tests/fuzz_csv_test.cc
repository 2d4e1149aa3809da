// Deterministic fuzz harness for the CSV layer: a seeded xorshift byte
// mutator perturbs the checked-in seed corpus (tests/fuzz_seeds/) and feeds
// the result to the sniffer and parser under every candidate dialect shape.
//
// Three properties are checked on every mutant:
//   1. No crash, no hang: sniff + parse + write complete on arbitrary bytes
//      (this binary runs as a normal ctest, so the ASan/UBSan/TSan CI jobs
//      exercise exactly this path with sanitizers armed).
//   2. Write/parse idempotence: the first parse may interpret malformed
//      input however it likes, but serializing the resulting grid and
//      re-parsing it must reproduce the grid exactly — the same lossless
//      contract csv_parser_test pins on hand-written cases.
//   3. Zero-copy/reference agreement: the structural-scanner ParseGrid must
//      produce exactly the grid the retained reference state machine
//      (ParseGridReference) produces — the differential contract of
//      docs/INGEST.md, here under adversarial bytes instead of clean files.
//      Under every sniffer candidate dialect, the unpadded rows the sniffer
//      scores must match the reference's rows, widths included.
//
// Everything is seeded; a failure prints the seed file, iteration, and the
// offending bytes, so any finding replays exactly.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "csv/parser.h"
#include "csv/sniffer.h"
#include "csv/writer.h"
#include "gtest/gtest.h"
#include "tests/oracle/csv_reference.h"

#ifndef AGGRECOL_SOURCE_DIR
#error "AGGRECOL_SOURCE_DIR must point at the repository root"
#endif

namespace aggrecol::csv {
namespace {

/// xorshift64: tiny, fully deterministic, and independent of the standard
/// library's distribution implementations.
class Xorshift {
 public:
  explicit Xorshift(uint64_t seed) : state_(seed ? seed : 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  // Uniform-enough index in [0, bound); bound > 0.
  size_t Below(size_t bound) { return static_cast<size_t>(Next() % bound); }

 private:
  uint64_t state_;
};

std::vector<std::string> LoadSeedCorpus() {
  const std::filesystem::path dir =
      std::filesystem::path(AGGRECOL_SOURCE_DIR) / "tests" / "fuzz_seeds";
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".csv") paths.push_back(entry.path());
  }
  // directory_iterator order is unspecified; sort for deterministic seeds.
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    corpus.push_back(buffer.str());
  }
  return corpus;
}

/// One mutation step: flip, insert, delete, duplicate a span, or splice in a
/// structural character. Biased toward the characters that drive the parser
/// state machine so mutants hit interesting states, not just ASCII soup.
std::string Mutate(std::string text, Xorshift& rng) {
  static constexpr char kStructural[] = {',',  ';',  '\t', '|', '"', '\'',
                                         '\\', '\n', '\r', '%', '0', '('};
  const int kind = static_cast<int>(rng.Below(5));
  switch (kind) {
    case 0:  // flip a byte
      if (!text.empty()) {
        text[rng.Below(text.size())] = static_cast<char>(rng.Below(256));
      }
      break;
    case 1:  // insert a structural character
      text.insert(text.begin() + static_cast<long>(rng.Below(text.size() + 1)),
                  kStructural[rng.Below(sizeof(kStructural))]);
      break;
    case 2:  // delete a byte
      if (!text.empty()) {
        text.erase(text.begin() + static_cast<long>(rng.Below(text.size())));
      }
      break;
    case 3:  // duplicate a short span (creates repeated quotes/delimiters)
      if (!text.empty()) {
        const size_t start = rng.Below(text.size());
        const size_t len = std::min(text.size() - start, 1 + rng.Below(8));
        text.insert(rng.Below(text.size() + 1), text.substr(start, len));
      }
      break;
    default:  // truncate (models interrupted uploads)
      if (!text.empty()) text.resize(rng.Below(text.size() + 1));
      break;
  }
  return text;
}

/// The dialect shapes the pipeline actually runs: the sniffer's candidate
/// space plus the elected dialect of the mutant itself.
std::vector<Dialect> DialectsUnderTest(const std::string& text) {
  std::vector<Dialect> dialects = {
      Dialect{',', '"'},        Dialect{';', '"'},      Dialect{'\t', '"'},
      Dialect{'|', '\''},       Dialect{',', '"', '\\'}, Dialect{';', '\'', '\\'},
  };
  dialects.push_back(SniffDialect(text).dialect);  // must not crash
  return dialects;
}

TEST(FuzzCsv, SeedCorpusIsPresentAndParses) {
  const auto corpus = LoadSeedCorpus();
  ASSERT_GE(corpus.size(), 8u) << "fuzz seed corpus missing or truncated";
  for (const auto& seed : corpus) {
    ASSERT_FALSE(seed.empty());
    const auto sniffed = SniffDialect(seed);
    const Grid grid = ParseGrid(seed, sniffed.dialect);
    EXPECT_GT(grid.rows(), 0);
  }
}

TEST(FuzzCsv, MutantsNeverCrashAndAlwaysRoundTrip) {
  const auto corpus = LoadSeedCorpus();
  ASSERT_FALSE(corpus.empty());
  constexpr int kMutantsPerSeed = 120;
  constexpr int kStepsPerMutant = 4;

  for (size_t s = 0; s < corpus.size(); ++s) {
    Xorshift rng(0xA66ECC01ULL * (s + 1));
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      std::string mutant = corpus[s];
      for (int step = 0; step < kStepsPerMutant; ++step) {
        mutant = Mutate(std::move(mutant), rng);
      }
      for (const Dialect& dialect : SniffCandidates()) {
        ASSERT_EQ(UnpaddedRowsMismatch(mutant, dialect), "")
            << "seed " << s << " mutant " << m << " dialect '"
            << dialect.delimiter << "' quote '" << dialect.quote
            << "' escape '" << dialect.escape << "' input: ["
            << ::testing::PrintToString(mutant) << "]";
      }
      for (const Dialect& dialect : DialectsUnderTest(mutant)) {
        const Grid grid = ParseGrid(mutant, dialect);
        ASSERT_EQ(grid, ParseGridReference(mutant, dialect))
            << "zero-copy/reference divergence: seed " << s << " mutant " << m
            << " dialect '" << dialect.delimiter << "' quote '"
            << dialect.quote << "' escape '" << dialect.escape
            << "' input: [" << ::testing::PrintToString(mutant) << "]";
        const std::string written = WriteGrid(grid, dialect);
        const Grid reparsed = ParseGrid(written, dialect);
        ASSERT_EQ(reparsed, grid)
            << "seed " << s << " mutant " << m << " dialect '"
            << dialect.delimiter << "' quote '" << dialect.quote
            << "' escape '" << dialect.escape << "' input: ["
            << ::testing::PrintToString(mutant) << "]";
      }
    }
  }
}

TEST(FuzzCsv, PureNoiseNeverCrashes) {
  // No seed structure at all: raw byte noise through sniff + parse + write.
  Xorshift rng(0xDEADBEEFULL);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::string noise(rng.Below(512), '\0');
    for (char& c : noise) c = static_cast<char>(rng.Below(256));
    for (const Dialect& dialect : SniffCandidates()) {
      ASSERT_EQ(UnpaddedRowsMismatch(noise, dialect), "")
          << "unpadded divergence at iteration " << iteration;
    }
    for (const Dialect& dialect : DialectsUnderTest(noise)) {
      const Grid grid = ParseGrid(noise, dialect);
      ASSERT_EQ(grid, ParseGridReference(noise, dialect))
          << "zero-copy/reference divergence at iteration " << iteration;
      const std::string written = WriteGrid(grid, dialect);
      ASSERT_EQ(ParseGrid(written, dialect), grid) << "iteration " << iteration;
    }
  }
}

}  // namespace
}  // namespace aggrecol::csv
