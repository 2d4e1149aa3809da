#ifndef AGGRECOL_CSV_PARSER_H_
#define AGGRECOL_CSV_PARSER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "csv/cell_arena.h"
#include "csv/dialect.h"
#include "csv/grid.h"
#include "csv/mapped_file.h"

namespace aggrecol::csv {

/// Returns `text` without a leading UTF-8 byte-order mark, if present.
/// Exposed so the sniffer and other text-level consumers can share the
/// parser's definition of "content starts here".
std::string_view StripBom(std::string_view text);

/// Optional knowledge the caller already has about the file, used to
/// pre-size parser buffers. The sniffer measures the modal row width while
/// electing a dialect; threading it through here turns the cell-table
/// growth into a single up-front reserve on wide files.
struct ParseHints {
  int expected_columns = 0;  // sniffer's modal row width; 0 = unknown
};

/// A parse before padding: the rows' cells back to back, and row i's field
/// count in `row_widths[i]`. Rows keep their own widths, so the sniffer can
/// score row-width agreement; Grid::FromParsed pads them into a rectangle.
struct ParsedRows {
  // aggrecol-lint: allow(L7): a transient result — ParseStructural's caller
  // keeps the parsed text and the arena alive while it reads the cells
  std::vector<std::string_view> cells;
  std::vector<uint32_t> row_widths;
};

/// The CSV state machine every parse runs: scans `text` for structural bytes
/// with the best available ScanTier (see csv/scanner.h), then walks the
/// RFC 4180 grammar generalized to arbitrary delimiter/quote/escape
/// characters position-to-position, bulk-slicing the literal spans in
/// between. Quoted fields may contain delimiters and line breaks, a doubled
/// quote inside a quoted field encodes a literal quote, and when the dialect
/// has an escape character it yields the following character literally. LF,
/// CRLF, and lone-CR line endings are all accepted, a leading UTF-8 BOM is
/// stripped, and an unterminated final quoted field keeps its content. A
/// trailing newline does not produce an extra empty row.
///
/// Clean cells are slices of `text`; cells whose content differs from the
/// raw bytes (doubled quotes, escapes) are interned into `arena`. Both must
/// outlive the result. Uninstrumented: the sniffer runs it once per
/// candidate dialect, so the `csv.parse` span and counters live in ParseGrid.
/// The retained string-copying oracle (tests/oracle/csv_reference.h) pins
/// it row by row.
ParsedRows ParseStructural(std::string_view text, const Dialect& dialect,
                           CellArena& arena, const ParseHints& hints = {});

/// Parses `text` into a padded Grid (ParseStructural, then
/// Grid::FromParsed). `text` is copied ONCE into the grid's arena so the
/// returned cells own their storage; use the MappedFile overload to avoid
/// even that copy.
Grid ParseGrid(std::string_view text, const Dialect& dialect,
               const ParseHints& hints = {});

/// True zero-copy parse: the mapping is moved into the grid's arena and
/// cells are slices of the mapped bytes — no bulk copy, no per-cell
/// allocation for clean fields.
Grid ParseGrid(MappedFile file, const Dialect& dialect,
               const ParseHints& hints = {});

}  // namespace aggrecol::csv

#endif  // AGGRECOL_CSV_PARSER_H_
