#ifndef AGGRECOL_TESTS_ORACLE_CSV_REFERENCE_H_
#define AGGRECOL_TESTS_ORACLE_CSV_REFERENCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "csv/dialect.h"
#include "csv/grid.h"
#include "csv/sniffer.h"

// The csv layer's differential oracles. The shipped libraries parse and
// sniff through csv::ParseStructural only; these retained originals live
// here so tests and benches can prove that path against them. Do not
// optimize them.
namespace aggrecol::csv {

/// Parses CSV `text` under `dialect` into rows of fields, one byte at a time
/// with a std::string per field. Same grammar as csv::ParseStructural (see
/// csv/parser.h); the differential tests in tests/csv_ingest_test.cc and
/// tests/fuzz_csv_test.cc pin the two row by row and grid by grid.
std::vector<std::vector<std::string>> ParseRows(std::string_view text,
                                                const Dialect& dialect);

/// Reference grid construction via ParseRows. Uninstrumented.
Grid ParseGridReference(std::string_view text, const Dialect& dialect);

/// The pre-consistency heuristic: it scores each (delimiter, quote)
/// candidate by row-width agreement and mean field count only, with no type
/// model, no escape candidates, and no prefix bound.
/// tests/robustness_corpus_test.cc and bench/robustness_corpus.cc score both
/// sniffers on the messy corpus; tests/csv_sniffer_test.cc pins where the
/// two may differ.
SniffResult SniffDialectReference(std::string_view text);

/// Compares csv::ParseStructural's unpadded rows of `text` with ParseRows,
/// row widths and cells alike. Returns "" when they agree, else the first
/// difference. A padded Grid cannot show a width difference; the sniffer's
/// row-pattern score would.
std::string UnpaddedRowsMismatch(std::string_view text, const Dialect& dialect);

}  // namespace aggrecol::csv

#endif  // AGGRECOL_TESTS_ORACLE_CSV_REFERENCE_H_
