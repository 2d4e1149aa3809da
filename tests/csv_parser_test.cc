#include "csv/parser.h"

#include <random>
#include <string>

#include "csv/grid.h"
#include "csv/writer.h"
#include "gtest/gtest.h"
#include "tests/oracle/csv_reference.h"

namespace aggrecol::csv {
namespace {

const Dialect kComma{',', '"'};

TEST(ParseRows, SimpleRows) {
  const auto rows = ParseRows("a,b\nc,d\n", kComma);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseRows, NoTrailingNewline) {
  const auto rows = ParseRows("a,b\nc,d", kComma);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseRows, EmptyFields) {
  const auto rows = ParseRows(",a,\n,,\n", kComma);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", "", ""}));
}

TEST(ParseRows, QuotedFieldWithDelimiter) {
  const auto rows = ParseRows("\"1,234\",b\n", kComma);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"1,234", "b"}));
}

TEST(ParseRows, EscapedQuote) {
  const auto rows = ParseRows("\"say \"\"hi\"\"\",x\n", kComma);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(ParseRows, QuotedFieldWithNewline) {
  const auto rows = ParseRows("\"line1\nline2\",b\n", kComma);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(ParseRows, CrLfLineEndings) {
  const auto rows = ParseRows("a,b\r\nc,d\r\n", kComma);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseRows, BareCarriageReturnEndsRow) {
  const auto rows = ParseRows("a,b\rc,d", kComma);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(ParseRows, EmptyLineBecomesEmptyRow) {
  const auto rows = ParseRows("a\n\nb\n", kComma);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{""}));
}

TEST(ParseRows, EmptyInput) {
  EXPECT_TRUE(ParseRows("", kComma).empty());
}

TEST(ParseRows, MalformedQuoteKeptLossless) {
  // `"a"b` is malformed per RFC 4180; the parser keeps the stray content.
  const auto rows = ParseRows("\"a\"b,c\n", kComma);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "ab");
  EXPECT_EQ(rows[0][1], "c");
}

TEST(ParseRows, SemicolonDialect) {
  const Dialect semicolon{';', '"'};
  const auto rows = ParseRows("a;b,c\n", semicolon);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b,c"}));
}

TEST(ParseRows, SingleQuoteDialect) {
  const Dialect single{',', '\''};
  const auto rows = ParseRows("'a,b',c\n", single);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
}

TEST(ParseGrid, PadsRaggedRows) {
  const Grid grid = ParseGrid("a,b,c\nd\n", kComma);
  EXPECT_EQ(grid.rows(), 2);
  EXPECT_EQ(grid.columns(), 3);
  EXPECT_EQ(grid.at(1, 0), "d");
  EXPECT_EQ(grid.at(1, 2), "");
}

TEST(Grid, Transposed) {
  const Grid grid(std::vector<std::vector<std::string>>{{"a", "b"}, {"c", "d"}});
  const Grid transposed = grid.Transposed();
  EXPECT_EQ(transposed.at(0, 0), "a");
  EXPECT_EQ(transposed.at(0, 1), "c");
  EXPECT_EQ(transposed.at(1, 0), "b");
  EXPECT_EQ(transposed.Transposed(), grid);
}

TEST(Grid, WithColumns) {
  const Grid grid(std::vector<std::vector<std::string>>{{"a", "b", "c"},
                                                        {"d", "e", "f"}});
  const Grid projected = grid.WithColumns({2, 0});
  EXPECT_EQ(projected.columns(), 2);
  EXPECT_EQ(projected.at(0, 0), "c");
  EXPECT_EQ(projected.at(0, 1), "a");
  EXPECT_EQ(projected.at(1, 0), "f");
}

TEST(Grid, IsEmptyAndCounts) {
  const Grid grid(std::vector<std::vector<std::string>>{{" ", "x"}, {"", "y"}});
  EXPECT_TRUE(grid.IsEmpty(0, 0));
  EXPECT_FALSE(grid.IsEmpty(0, 1));
  EXPECT_EQ(grid.CountNonEmpty(), 2);
}

// ---------------------------------------------------------------------------
// Malformed-input properties: whatever bytes come in, the parser must not
// crash, and the parsed grid must survive a round trip through csv::Writer
// (parse -> write -> parse yields the same grid).

Grid RoundTrip(const Grid& grid, const Dialect& dialect) {
  return ParseGrid(WriteGrid(grid, dialect), dialect);
}

TEST(ParserProperty, UnterminatedQuoteDoesNotCrash) {
  for (const char* text : {
           "\"abc,def\nghi",           // quote never closed, embedded newline
           "a,\"",                     // quote opens at end of input
           "a,b\n\"unclosed",          // last row unterminated
           "\"\"\"",                   // escaped quote then EOF inside quotes
           "x,\"y\nz,w\n",             // quote swallows the rest of the file
       }) {
    const Grid grid = ParseGrid(text, kComma);
    EXPECT_EQ(RoundTrip(grid, kComma), grid) << "input: " << text;
  }
}

TEST(ParserProperty, CrLfLfMixes) {
  const Grid grid = ParseGrid("a,b\r\nc,d\ne,f\r\ng,h", kComma);
  EXPECT_EQ(grid.rows(), 4);
  EXPECT_EQ(grid.columns(), 2);
  EXPECT_EQ(grid.at(1, 1), "d");
  EXPECT_EQ(grid.at(3, 0), "g");
  EXPECT_EQ(RoundTrip(grid, kComma), grid);

  // CR inside a quoted field is content, not a row break; the round trip
  // must preserve it byte for byte.
  const Grid quoted = ParseGrid("\"a\r\nb\",c\r\nd,e\n", kComma);
  EXPECT_EQ(quoted.rows(), 2);
  EXPECT_EQ(quoted.at(0, 0), "a\r\nb");
  EXPECT_EQ(RoundTrip(quoted, kComma), quoted);
}

TEST(ParserProperty, DelimiterInsideQuotedFieldAtBufferBoundaries) {
  // Exercise field lengths around typical I/O buffer sizes so a chunked
  // parser could not hide an off-by-one at a boundary: the delimiter lands
  // exactly at/before/after each power-of-two edge.
  for (const size_t size : {1u, 2u, 15u, 16u, 17u, 255u, 256u, 257u, 4095u,
                            4096u, 4097u, 65536u}) {
    const std::string prefix(size, 'x');
    const std::string field = prefix + ",tail";
    const std::string text = "\"" + field + "\",next\nplain,row\n";
    const Grid grid = ParseGrid(text, kComma);
    ASSERT_EQ(grid.rows(), 2) << "size " << size;
    ASSERT_EQ(grid.columns(), 2) << "size " << size;
    EXPECT_EQ(grid.at(0, 0), field) << "size " << size;
    EXPECT_EQ(grid.at(0, 1), "next");
    EXPECT_EQ(RoundTrip(grid, kComma), grid) << "size " << size;
  }
}

TEST(ParserProperty, RandomMalformedSoupRoundTrips) {
  // Seeded fuzz over the characters that drive the state machine. The first
  // parse may interpret malformed input however it likes; the writer must
  // then serialize that grid so a re-parse reproduces it exactly.
  const char alphabet[] = {',', '"', '\n', '\r', 'a', '9', ';', '\'', ' ', '.'};
  std::mt19937 rng(20220707);
  std::uniform_int_distribution<size_t> pick(0, sizeof(alphabet) - 1);
  std::uniform_int_distribution<size_t> length(0, 60);
  for (const Dialect& dialect :
       {Dialect{',', '"'}, Dialect{';', '"'}, Dialect{',', '\''}}) {
    for (int iteration = 0; iteration < 300; ++iteration) {
      std::string text;
      const size_t n = length(rng);
      text.reserve(n);
      for (size_t i = 0; i < n; ++i) text.push_back(alphabet[pick(rng)]);
      const Grid grid = ParseGrid(text, dialect);
      EXPECT_EQ(RoundTrip(grid, dialect), grid)
          << "dialect '" << dialect.delimiter << "' input: [" << text << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// Messy-file audit regressions: UTF-8 BOM, lone-CR endings, unterminated
// final quoted fields, and escape-character dialects.
// ---------------------------------------------------------------------------

TEST(Parser, StripsUtf8Bom) {
  const auto rows = ParseRows("\xEF\xBB\xBFJahr,Wert\n2001,5\n", kComma);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "Jahr");  // not "\xEF\xBB\xBFJahr"
}

TEST(Parser, StripBomIsExposedAndIdempotent) {
  EXPECT_EQ(StripBom("\xEF\xBB\xBF" "abc"), "abc");
  EXPECT_EQ(StripBom("abc"), "abc");
  EXPECT_EQ(StripBom(StripBom("\xEF\xBB\xBF" "abc")), "abc");
  // Only a *leading* BOM is metadata.
  EXPECT_EQ(StripBom("a\xEF\xBB\xBF"), "a\xEF\xBB\xBF");
}

TEST(Parser, BomBeforeQuotedFirstField) {
  const auto rows = ParseRows("\xEF\xBB\xBF\"a,b\",c\n", kComma);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], "a,b");
}

TEST(Parser, LoneCrTerminatesFinalRow) {
  // Classic-Mac file whose last line ends in '\r' with no trailing newline:
  // the final row must not be dropped or merged.
  const auto rows = ParseRows("a,b\rc,d\r", kComma);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "c");
  EXPECT_EQ(rows[1][1], "d");
}

TEST(Parser, LoneCrAfterClosingQuoteEndsRow) {
  const auto rows = ParseRows("\"a,1\",x\r\"b,2\",y\r", kComma);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "a,1");
  EXPECT_EQ(rows[1][0], "b,2");
}

TEST(Parser, UnterminatedFinalQuotedFieldKeepsContent) {
  // Truncated uploads lose their closing quote, not their data.
  const auto rows = ParseRows("a,b\nc,\"trunc", kComma);
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[1].size(), 2u);
  EXPECT_EQ(rows[1][1], "trunc");
}

TEST(Parser, UnterminatedQuoteSwallowsNewlinesAsContent) {
  // Inside an (unterminated) quoted field a newline is field content; the
  // truncated field keeps it rather than fabricating extra rows.
  const auto rows = ParseRows("a,\"x\ny", kComma);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][1], "x\ny");
}

TEST(Parser, EscapeCharacterEscapesQuoteInsideQuotedField) {
  const Dialect escaped{',', '"', '\\'};
  const auto rows = ParseRows("\"he said \\\"hi\\\"\",x\n", escaped);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], "he said \"hi\"");
}

TEST(Parser, EscapeCharacterEscapesDelimiterInUnquotedField) {
  const Dialect escaped{',', '"', '\\'};
  const auto rows = ParseRows("a\\,b,c\n", escaped);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "c");
}

TEST(Parser, DanglingEscapeAtEndOfInputKeptLiterally) {
  const Dialect escaped{',', '"', '\\'};
  const auto rows = ParseRows("a,b\\", escaped);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], "b\\");
}

TEST(Parser, EscapeCollidingWithStructuralCharsMeansDoublingOnly) {
  // A dialect claiming the quote (or delimiter) as its escape character
  // still parses as RFC doubling — the collision guard must not let the
  // escape eat structural characters.
  const Dialect quote_collision{',', '"', '"'};
  const auto rows = ParseRows("\"say \"\"hi\"\"\",x\n", quote_collision);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");

  const Dialect delimiter_collision{',', '"', ','};
  const auto plain = ParseRows("a,b\n", delimiter_collision);
  ASSERT_EQ(plain.size(), 1u);
  ASSERT_EQ(plain[0].size(), 2u);
}

TEST(Parser, EscapeDialectRoundTripsThroughWriter) {
  const Dialect escaped{';', '"', '\\'};
  Grid grid(2, 2);
  grid.set(0, 0, "plain");
  grid.set(0, 1, "semi;colon");
  grid.set(1, 0, "back\\slash");
  grid.set(1, 1, "quo\"te and \\ mix");
  EXPECT_EQ(RoundTrip(grid, escaped), grid);
}

TEST(ParserProperty, RandomSoupRoundTripsUnderEscapeDialects) {
  // The malformed-soup property, extended over escape-bearing dialects.
  const char alphabet[] = {',', '"', '\n', '\r', '\\', 'a', '9', ';', ' '};
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<size_t> pick(0, sizeof(alphabet) - 1);
  std::uniform_int_distribution<size_t> length(0, 60);
  for (const Dialect& dialect :
       {Dialect{',', '"', '\\'}, Dialect{';', '"', '\\'}, Dialect{',', '\'', '\\'}}) {
    for (int iteration = 0; iteration < 300; ++iteration) {
      std::string text;
      const size_t n = length(rng);
      text.reserve(n);
      for (size_t i = 0; i < n; ++i) text.push_back(alphabet[pick(rng)]);
      const Grid grid = ParseGrid(text, dialect);
      EXPECT_EQ(RoundTrip(grid, dialect), grid)
          << "dialect '" << dialect.delimiter << "' input: [" << text << "]";
    }
  }
}

}  // namespace
}  // namespace aggrecol::csv
