#ifndef AGGRECOL_CSV_SNIFFER_H_
#define AGGRECOL_CSV_SNIFFER_H_

#include <string_view>
#include <vector>

#include "csv/dialect.h"

namespace aggrecol::csv {

/// Result of dialect detection: the winning dialect and its score(s).
struct SniffResult {
  Dialect dialect;

  /// Combined consistency measure of the winning candidate. For the
  /// consistency sniffer this is `pattern_score * type_score` in [0, 1];
  /// the retained reference sniffer (tests/oracle/csv_reference.h) keeps
  /// the legacy magnitude (consistency share scaled by 1000 plus mean width).
  double score = 0.0;

  /// Row-pattern regularity of the winning parse: sum over distinct row
  /// widths w of (share of rows with width w)^2 * (w - 1) / w. 1 row of
  /// evidence per candidate; 0 when no candidate splits the content.
  double pattern_score = 0.0;

  /// Type plausibility of the winning parse: mean over cells of 1.0 for
  /// cells that lex as empty, a number under the elected number format, or a
  /// date/time, and a small epsilon for free text (labels are expected, but
  /// a dialect that shreds numbers into text fragments must lose).
  double type_score = 0.0;

  /// Most frequent row width of the winning parse (ties prefer the wider
  /// width); 0 when nothing split. The sniffer already pays for this while
  /// scoring, and the parser uses it as a buffer reserve hint
  /// (ParseHints::expected_columns) — measure once, allocate once.
  int modal_row_width = 0;
};

/// Detects the file dialect of `text` with a consistency measure in the
/// spirit of van den Burg et al. ("Wrangling Messy CSV Files"): every
/// candidate dialect (delimiter x quote x escape) parses a bounded prefix,
/// and candidates are scored by row-pattern regularity (column-count
/// agreement) times type-pattern plausibility (fraction of cells that lex as
/// number/date/empty under the per-candidate elected number format). The
/// paper assumes dialects "have been correctly detected" by prior work
/// (multi-hypothesis parsing, Sec. 2.1); this sniffer implements that
/// substrate. Ties fall back to the conventional comma/double-quote dialect.
/// Each trial parse is csv::ParseStructural, the state machine ParseGrid
/// runs, into views of `text` plus one arena per call; trials do not count
/// as `csv.parse` grids.
SniffResult SniffDialect(std::string_view text);

/// Every dialect SniffDialect can elect (delimiter x quote x escape), in
/// tie-break preference order. Escape-character candidates are scored only
/// when the sniffed prefix holds a backslash.
const std::vector<Dialect>& SniffCandidates();

}  // namespace aggrecol::csv

#endif  // AGGRECOL_CSV_SNIFFER_H_
