#include "tests/oracle/csv_reference.h"

#include <array>
#include <map>
#include <string>
#include <utility>

#include "csv/parser.h"

namespace aggrecol::csv {
namespace {

enum class State {
  kFieldStart,    // at the beginning of a field
  kUnquoted,      // inside an unquoted field
  kQuoted,        // inside a quoted field
  kQuoteInQuote,  // just saw a quote inside a quoted field
};

constexpr std::array<char, 4> kCandidateDelimiters = {',', ';', '\t', '|'};
constexpr std::array<char, 2> kCandidateQuotes = {'"', '\''};

// ---------------------------------------------------------------------------
// Legacy reference scoring (row-width agreement x mean field count).
// ---------------------------------------------------------------------------

// Scores a parse: high when rows agree on a common width > 1.
double ReferenceScoreParse(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return 0.0;
  std::map<size_t, int> width_counts;
  double total_fields = 0.0;
  for (const auto& row : rows) {
    ++width_counts[row.size()];
    total_fields += static_cast<double>(row.size());
  }
  // Most frequent width and its share of rows.
  size_t mode_width = 1;
  int mode_count = 0;
  for (const auto& [width, count] : width_counts) {
    if (count > mode_count || (count == mode_count && width > mode_width)) {
      mode_width = width;
      mode_count = count;
    }
  }
  const double consistency = static_cast<double>(mode_count) / rows.size();
  const double mean_fields = total_fields / rows.size();
  if (mode_width <= 1) {
    // A dialect that never splits anything carries no structural evidence.
    return 0.0;
  }
  // Consistency dominates; mean width breaks ties between dialects that both
  // split the file consistently (e.g. ',' vs '\t' in a file using only one).
  return consistency * 1000.0 + mean_fields;
}

}  // namespace

std::vector<std::vector<std::string>> ParseRows(std::string_view text,
                                                const Dialect& dialect) {
  // A leading UTF-8 byte-order mark is file metadata, not cell content;
  // leaving it attached would corrupt the first header cell (and make a
  // numeric first cell unparseable).
  text = StripBom(text);

  // The escape character is only honored when it cannot collide with the
  // structural characters; a dialect claiming '"' both as quote and escape
  // still means RFC doubling.
  const char escape = (dialect.escape != '\0' && dialect.escape != dialect.quote &&
                       dialect.escape != dialect.delimiter)
                          ? dialect.escape
                          : '\0';

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  State state = State::kFieldStart;
  bool row_has_content = false;  // a delimiter or any character was seen

  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    state = State::kFieldStart;
  };
  auto end_row = [&]() {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
    row_has_content = false;
  };
  // Consumes the character after an escape; at end-of-input the dangling
  // escape character is kept literally to stay lossless.
  auto consume_escaped = [&](size_t pos) {
    if (pos + 1 < text.size()) {
      field.push_back(text[pos + 1]);
      return true;
    }
    field.push_back(escape);
    return false;
  };

  for (size_t pos = 0; pos < text.size(); ++pos) {
    const char c = text[pos];
    switch (state) {
      case State::kFieldStart:
        if (escape != '\0' && c == escape) {
          if (consume_escaped(pos)) ++pos;
          state = State::kUnquoted;
          row_has_content = true;
        } else if (c == dialect.quote) {
          state = State::kQuoted;
          row_has_content = true;
        } else if (c == dialect.delimiter) {
          end_field();
          row_has_content = true;
        } else if (c == '\r') {
          // Swallow; the following '\n' (if any) ends the row.
          if (pos + 1 >= text.size() || text[pos + 1] != '\n') end_row();
        } else if (c == '\n') {
          end_row();
        } else {
          field.push_back(c);
          state = State::kUnquoted;
          row_has_content = true;
        }
        break;
      case State::kUnquoted:
        if (escape != '\0' && c == escape) {
          if (consume_escaped(pos)) ++pos;
        } else if (c == dialect.delimiter) {
          end_field();
        } else if (c == '\r') {
          if (pos + 1 >= text.size() || text[pos + 1] != '\n') end_row();
        } else if (c == '\n') {
          end_row();
        } else {
          field.push_back(c);
        }
        break;
      case State::kQuoted:
        if (escape != '\0' && c == escape) {
          if (consume_escaped(pos)) ++pos;
        } else if (c == dialect.quote) {
          state = State::kQuoteInQuote;
        } else {
          field.push_back(c);
        }
        break;
      case State::kQuoteInQuote:
        if (c == dialect.quote) {
          field.push_back(dialect.quote);  // escaped quote
          state = State::kQuoted;
        } else if (c == dialect.delimiter) {
          end_field();
        } else if (c == '\r') {
          state = State::kUnquoted;
          if (pos + 1 >= text.size() || text[pos + 1] != '\n') end_row();
        } else if (c == '\n') {
          end_row();
        } else {
          // Malformed input such as `"a"b`; keep the stray character to stay
          // lossless on messy real-world files.
          field.push_back(c);
          state = State::kUnquoted;
        }
        break;
    }
  }

  // Flush the final row unless the input ended with a row terminator and the
  // trailing row is completely empty. An unterminated final quoted field
  // (state still kQuoted at end-of-input) flushes its accumulated content —
  // truncated uploads lose their closing quote, not their data.
  if (row_has_content || !field.empty() || !row.empty()) {
    end_row();
  }
  return rows;
}

Grid ParseGridReference(std::string_view text, const Dialect& dialect) {
  return Grid(ParseRows(text, dialect));
}

SniffResult SniffDialectReference(std::string_view text) {
  SniffResult best;
  best.dialect = Dialect{',', '"'};
  best.score = -1.0;
  for (char delimiter : kCandidateDelimiters) {
    for (char quote : kCandidateQuotes) {
      const Dialect candidate{delimiter, quote};
      const auto rows = ParseRows(text, candidate);
      const double score = ReferenceScoreParse(rows);
      if (score > best.score) {
        best.dialect = candidate;
        best.score = score;
      }
    }
  }
  if (best.score <= 0.0) {
    best = SniffResult{};
    best.dialect = Dialect{',', '"'};
  }
  return best;
}

std::string UnpaddedRowsMismatch(std::string_view text, const Dialect& dialect) {
  CellArena arena;
  const ParsedRows parsed = ParseStructural(text, dialect, arena);
  const auto reference = ParseRows(text, dialect);
  if (parsed.row_widths.size() != reference.size()) {
    return "row count " + std::to_string(parsed.row_widths.size()) +
           " != reference " + std::to_string(reference.size());
  }
  size_t cell = 0;
  for (size_t r = 0; r < reference.size(); ++r) {
    if (parsed.row_widths[r] != reference[r].size()) {
      return "row " + std::to_string(r) + " width " +
             std::to_string(parsed.row_widths[r]) + " != reference " +
             std::to_string(reference[r].size());
    }
    for (size_t c = 0; c < reference[r].size(); ++c, ++cell) {
      if (parsed.cells[cell] != reference[r][c]) {
        return "row " + std::to_string(r) + " cell " + std::to_string(c) +
               " [" + std::string(parsed.cells[cell]) + "] != reference [" +
               reference[r][c] + "]";
      }
    }
  }
  if (cell != parsed.cells.size()) {
    return std::to_string(parsed.cells.size() - cell) +
           " cells beyond the last row";
  }
  return "";
}

}  // namespace aggrecol::csv
