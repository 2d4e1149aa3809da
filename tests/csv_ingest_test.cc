// Ingest-pipeline tests: MappedFile sourcing, arena lifetime, and the
// differential contract of docs/INGEST.md — the zero-copy ParseGrid must be
// bit-identical to the retained reference (Grid(ParseRows(...))) for every
// input and dialect, all the way through detection output.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/aggrecol.h"
#include "csv/mapped_file.h"
#include "csv/parser.h"
#include "csv/sniffer.h"
#include "csv/writer.h"
#include "datagen/corpus.h"
#include "datagen/messy_generator.h"
#include "gtest/gtest.h"
#include "tests/oracle/csv_reference.h"

#ifndef AGGRECOL_SOURCE_DIR
#error "AGGRECOL_SOURCE_DIR must point at the repository root"
#endif

namespace aggrecol::csv {
namespace {

/// Writes `content` to a throwaway file in the test's working directory and
/// removes it on scope exit.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& content,
                       const std::string& name = "ingest_scratch.csv")
      : path_(std::filesystem::current_path() / name) {
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

std::vector<std::string> LoadFuzzSeeds() {
  const std::filesystem::path dir =
      std::filesystem::path(AGGRECOL_SOURCE_DIR) / "tests" / "fuzz_seeds";
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".csv") paths.push_back(entry.path());
  }
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

std::vector<Dialect> AllDialects() {
  return {
      Dialect{',', '"'},       Dialect{';', '"'},       Dialect{'\t', '"'},
      Dialect{'|', '\''},      Dialect{',', '"', '\\'}, Dialect{';', '\'', '\\'},
  };
}

// ---------------------------------------------------------------------------
// MappedFile sourcing and fallback.

TEST(MappedFile, RegularFileIsMappedAndMatchesContents) {
  const std::string content = "a,b,c\n1,2,3\n";
  ScratchFile file(content);
  auto mapped = MappedFile::Open(file.path());
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->source(), MappedFile::Source::kMmap);
  EXPECT_EQ(mapped->view(), content);
  EXPECT_EQ(mapped->size(), content.size());
}

TEST(MappedFile, EmptyFileFallsBackToRead) {
  ScratchFile file("", "ingest_empty.csv");
  auto mapped = MappedFile::Open(file.path());
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->source(), MappedFile::Source::kRead);
  EXPECT_EQ(mapped->view(), "");
  EXPECT_EQ(mapped->size(), 0u);
}

TEST(MappedFile, MissingFileIsNullopt) {
  EXPECT_FALSE(
      MappedFile::Open("ingest_definitely_does_not_exist.csv").has_value());
}

#ifndef _WIN32
TEST(MappedFile, NonRegularFileFallsBackToRead) {
  // /dev/null is a character device: S_ISREG fails, so the read() path runs.
  auto mapped = MappedFile::Open("/dev/null");
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->source(), MappedFile::Source::kRead);
  EXPECT_EQ(mapped->size(), 0u);
}
#endif

TEST(MappedFile, FromBufferWrapsOwnedBytes) {
  const MappedFile file = MappedFile::FromBuffer("x,y\n1,2\n");
  EXPECT_EQ(file.source(), MappedFile::Source::kRead);
  EXPECT_EQ(file.view(), "x,y\n1,2\n");
}

TEST(MappedFile, MoveTransfersMapping) {
  const std::string content = "m,n\n3,4\n";
  ScratchFile file(content, "ingest_move.csv");
  auto mapped = MappedFile::Open(file.path());
  ASSERT_TRUE(mapped.has_value());
  MappedFile moved = std::move(*mapped);
  EXPECT_EQ(moved.view(), content);
  MappedFile assigned = MappedFile::FromBuffer("tmp");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.view(), content);
}

// ---------------------------------------------------------------------------
// Arena lifetime: grids must own (or keep alive) every byte their cells view.

TEST(IngestLifetime, GridOutlivesTheSourceString) {
  Grid grid = [] {
    std::string source = "alpha,beta\n\"ga,mma\",delta\n";
    const Grid parsed = ParseGrid(source, Dialect{',', '"'});
    // Clobber the source before it even goes out of scope.
    std::fill(source.begin(), source.end(), '#');
    return parsed;
  }();
  EXPECT_EQ(grid.at(0, 0), "alpha");
  EXPECT_EQ(grid.at(1, 0), "ga,mma");
  EXPECT_EQ(grid.at(1, 1), "delta");
}

TEST(IngestLifetime, GridOutlivesTheMappedFileAndItsPath) {
  const std::string content = "h1,h2\n\"quoted \"\"cell\"\"\",plain\nlast,row\n";
  Grid grid = [&] {
    ScratchFile file(content, "ingest_lifetime.csv");
    auto mapped = MappedFile::Open(file.path());
    EXPECT_EQ(mapped->source(), MappedFile::Source::kMmap);
    return ParseGrid(std::move(*mapped), Dialect{',', '"'});
    // ScratchFile unlinks the path here; the arena holds the mapping alive.
  }();
  EXPECT_EQ(grid.rows(), 3);
  EXPECT_EQ(grid.at(1, 0), "quoted \"cell\"");
  EXPECT_EQ(grid.at(2, 1), "row");
}

TEST(IngestLifetime, DerivedGridsShareTheArena) {
  const std::string content = "a,b,c\n1,2,3\n4,5,6\n";
  Grid grid = ParseGrid(content, Dialect{',', '"'});
  const Grid transposed = grid.Transposed();
  const Grid sub = grid.SubRows(1, 2);
  grid = Grid();  // drop the original; shared arena must keep bytes alive
  EXPECT_EQ(transposed.at(2, 0), "c");
  EXPECT_EQ(sub.at(1, 2), "6");
}

// ---------------------------------------------------------------------------
// Differential contract: zero-copy == reference, bit for bit.

void ExpectDifferentialMatch(const std::string& text, const Dialect& dialect,
                             const std::string& label) {
  const Grid reference = ParseGridReference(text, dialect);
  const Grid zero_copy = ParseGrid(text, dialect);
  ASSERT_EQ(zero_copy.rows(), reference.rows()) << label;
  ASSERT_EQ(zero_copy.columns(), reference.columns()) << label;
  ASSERT_EQ(zero_copy, reference) << label;
  // The MappedFile overload must agree as well.
  const Grid from_buffer =
      ParseGrid(MappedFile::FromBuffer(text), dialect);
  ASSERT_EQ(from_buffer, reference) << label << " (FromBuffer)";
}

TEST(IngestDifferential, FuzzSeedCorpusUnderEveryDialect) {
  const auto seeds = LoadFuzzSeeds();
  ASSERT_GE(seeds.size(), 8u);
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (const Dialect& dialect : AllDialects()) {
      ExpectDifferentialMatch(seeds[s], dialect,
                              "seed " + std::to_string(s) + " delim '" +
                                  std::string(1, dialect.delimiter) + "'");
    }
  }
}

std::vector<std::string> HandPickedCases() {
  return {
      "",
      "\n",
      "\r",
      "\r\n",
      ",",
      "\"",
      "a",
      "\xEF\xBB\xBF",               // BOM only
      "\xEF\xBB\xBF" "a,b\r\n1,2\r",  // BOM + CRLF + trailing lone CR
      "\"unterminated",
      "\"a\"\"b\",c",               // doubled quote
      "\"multi\nline\",x",          // newline inside quotes
      "a,\"b\"c,d",                 // stray content after closing quote
      "a,b\rc,d\r\ne,f\ng,h",      // mixed terminators in one file
      std::string(100, ','),        // 101 empty fields
      "trailing,newline\n",
      "\"\",\"\"\n",
  };
}

TEST(IngestDifferential, HandPickedEdgeCases) {
  const Dialect rfc{',', '"'};
  for (const auto& text : HandPickedCases()) {
    ExpectDifferentialMatch(text, rfc, "case [" + text + "]");
    ExpectDifferentialMatch(text, Dialect{',', '"', '\\'},
                            "escape case [" + text + "]");
  }
}

TEST(IngestDifferential, EscapeDialectCollisionsAndEscapedStructurals) {
  // Escape char collides with quote/delimiter, escapes at EOF, escaped
  // structural characters — the paths where the scanner must defer to the
  // state machine.
  const std::vector<std::pair<std::string, Dialect>> cases = {
      {"a\\,b,c", Dialect{',', '"', '\\'}},
      {"a\\\nb,c", Dialect{',', '"', '\\'}},
      {"trailing\\", Dialect{',', '"', '\\'}},
      {"\"in\\\"quote\"", Dialect{',', '"', '\\'}},
      {"a,b", Dialect{',', ',', ','}},    // degenerate: all three collide
      {"x\\y", Dialect{',', '"', '"'}},   // escape == quote
  };
  for (const auto& [text, dialect] : cases) {
    ExpectDifferentialMatch(text, dialect, "escape case [" + text + "]");
  }
}

const std::vector<eval::AnnotatedFile>& CleanCorpus() {
  static const auto* const kFiles = new std::vector<eval::AnnotatedFile>(
      datagen::GenerateCorpus(datagen::ValidationCorpus()));
  return *kFiles;
}

TEST(IngestDifferential, CleanCorpusRoundTripsUnderEveryDialect) {
  const auto& files = CleanCorpus();
  ASSERT_FALSE(files.empty());
  // Serializing every validation grid and differential-parsing the bytes
  // covers realistic wide/numeric content at scale: the full corpus under
  // the RFC dialect, a prefix under the whole dialect battery.
  for (size_t f = 0; f < files.size(); ++f) {
    const std::string text = WriteGrid(files[f].grid, Dialect{',', '"'});
    ExpectDifferentialMatch(text, Dialect{',', '"'}, files[f].name);
  }
  const size_t swept = std::min<size_t>(files.size(), 40);
  for (size_t f = 0; f < swept; ++f) {
    for (const Dialect& dialect : AllDialects()) {
      const std::string text = WriteGrid(files[f].grid, dialect);
      ExpectDifferentialMatch(text, dialect, files[f].name);
    }
  }
}

TEST(IngestDifferential, MessyCorpusRawBytes) {
  // The adversarial corpus ships raw on-disk bytes (BOM, CRLF, lone CR,
  // embedded quotes); differential-parse them under the ground-truth dialect
  // and the full dialect battery.
  datagen::MessyCorpusSpec spec;
  spec.files_per_category = 4;
  const auto files = datagen::GenerateMessyCorpus(spec);
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    ExpectDifferentialMatch(file.text, file.dialect, file.annotated.name);
    for (const Dialect& dialect : AllDialects()) {
      ExpectDifferentialMatch(file.text, dialect, file.annotated.name);
    }
  }
}

// ---------------------------------------------------------------------------
// Unpadded differential: the sniffer scores ParseStructural's rows before
// Grid pads them, so row widths must match the oracle as well as cells. A
// padded Grid hides a short row that PatternScore would count.

/// `text` with every LF rewritten as `terminator` (CRLF and lone-CR files).
std::string WithLineEnds(const std::string& text, std::string_view terminator) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out.append(terminator);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void ExpectUnpaddedMatch(const std::string& text, const std::string& label) {
  for (const std::string_view terminator : {"\n", "\r\n", "\r"}) {
    const std::string variant = WithLineEnds(text, terminator);
    for (const Dialect& dialect : SniffCandidates()) {
      const std::string mismatch = UnpaddedRowsMismatch(variant, dialect);
      ASSERT_EQ(mismatch, "")
          << label << " under " << ToString(dialect) << " escape '"
          << dialect.escape << "', line end "
          << ::testing::PrintToString(std::string(terminator));
    }
  }
}

TEST(IngestUnpadded, SniffCandidatesCoverEveryDelimiterQuoteAndEscape) {
  EXPECT_EQ(SniffCandidates().size(), 16u);
  EXPECT_EQ(SniffCandidates().front(), (Dialect{',', '"'}));
}

TEST(IngestUnpadded, RowsMatchTheOracleOnEveryIngestInput) {
  const auto seeds = LoadFuzzSeeds();
  for (size_t s = 0; s < seeds.size(); ++s) {
    ExpectUnpaddedMatch(seeds[s], "seed " + std::to_string(s));
  }
  for (const auto& text : HandPickedCases()) {
    ExpectUnpaddedMatch(text, "case [" + text + "]");
  }
  datagen::MessyCorpusSpec spec;
  spec.files_per_category = 4;
  for (const auto& file : datagen::GenerateMessyCorpus(spec)) {
    ExpectUnpaddedMatch(file.text, file.annotated.name);
  }
  const auto& files = CleanCorpus();
  const size_t swept = std::min<size_t>(files.size(), 20);
  for (size_t f = 0; f < swept; ++f) {
    ExpectUnpaddedMatch(WriteGrid(files[f].grid, Dialect{';', '"'}),
                        files[f].name);
  }
}

TEST(IngestDifferential, DialectElectionIsIdenticalOnMappedBytes) {
  // Sniffing the mapped view must elect exactly what sniffing an owned
  // string elects — same dialect, same modal width.
  datagen::MessyCorpusSpec spec;
  spec.files_per_category = 2;
  for (const auto& file : datagen::GenerateMessyCorpus(spec)) {
    ScratchFile scratch(file.text, "ingest_sniff.csv");
    auto mapped = MappedFile::Open(scratch.path());
    ASSERT_TRUE(mapped.has_value());
    const SniffResult from_map = SniffDialect(mapped->view());
    const SniffResult from_string = SniffDialect(file.text);
    EXPECT_EQ(from_map.dialect, from_string.dialect) << file.annotated.name;
    EXPECT_EQ(from_map.modal_row_width, from_string.modal_row_width)
        << file.annotated.name;
  }
}

TEST(IngestDifferential, DetectionOutputIsPinnedAcrossParsePaths) {
  // End-to-end: aggregation detection over the zero-copy grid must equal
  // detection over the reference grid, file by file.
  const core::AggreCol detector;
  const auto& files = CleanCorpus();
  const size_t count = std::min<size_t>(files.size(), 8);
  for (size_t f = 0; f < count; ++f) {
    const std::string text = WriteGrid(files[f].grid, Dialect{',', '"'});
    const Grid reference = ParseGridReference(text, Dialect{',', '"'});
    const Grid zero_copy = ParseGrid(text, Dialect{',', '"'});
    const auto ref_result = detector.Detect(reference);
    const auto zc_result = detector.Detect(zero_copy);
    EXPECT_EQ(zc_result.aggregations, ref_result.aggregations)
        << files[f].name;
  }
}

// ---------------------------------------------------------------------------
// ParseHints: a width hint is a pure pre-size, never a semantic input.

TEST(ParseHints, HintNeverChangesTheGrid) {
  const auto seeds = LoadFuzzSeeds();
  ASSERT_FALSE(seeds.empty());
  for (const auto& text : seeds) {
    const SniffResult sniffed = SniffDialect(text);
    const Grid plain = ParseGrid(text, sniffed.dialect);
    for (int hint : {0, 1, sniffed.modal_row_width, 10'000}) {
      const Grid hinted =
          ParseGrid(text, sniffed.dialect, ParseHints{hint});
      ASSERT_EQ(hinted, plain) << "hint " << hint;
    }
  }
}

TEST(ParseHints, SnifferMeasuresTheModalWidthOfCleanFiles) {
  const SniffResult sniffed = SniffDialect("a,b,c\n1,2,3\n4,5,6\n");
  EXPECT_EQ(sniffed.modal_row_width, 3);
  const SniffResult ragged = SniffDialect("a,b\n1,2\nx\n3,4\n");
  EXPECT_EQ(ragged.modal_row_width, 2);
}

}  // namespace
}  // namespace aggrecol::csv
