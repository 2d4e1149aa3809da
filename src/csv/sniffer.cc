#include "csv/sniffer.h"

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "csv/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aggrecol::csv {
namespace {

constexpr std::array<char, 4> kCandidateDelimiters = {',', ';', '\t', '|'};
constexpr std::array<char, 2> kCandidateQuotes = {'"', '\''};
constexpr std::array<char, 2> kCandidateEscapes = {'\0', '\\'};

/// The consistency sniffer scores a bounded prefix: dialect evidence
/// saturates quickly, and `DetectText` must not pay O(file size) once per
/// candidate on multi-megabyte uploads.
constexpr size_t kSniffPrefixBytes = 64 * 1024;

/// Free-text cells (labels, headers, footnotes) are expected in verbose CSV
/// files, so they must not zero a candidate's type score — but a dialect
/// that shreds numbers into text fragments has to lose to one that keeps
/// them lexable. A small epsilon per text cell encodes exactly that.
constexpr double kTextCellScore = 0.1;

// ---------------------------------------------------------------------------
// Consistency scoring (row-pattern regularity x type plausibility).
// ---------------------------------------------------------------------------

/// Row-pattern regularity: sum over distinct widths w of
/// (rows with width w / rows)^2 * (w - 1) / w. A single agreed width w > 1
/// scores (w-1)/w (close to 1); a 50/50 width split scores ~0.5 * (w-1)/w;
/// a dialect that never splits anything scores 0.
double PatternScore(const std::vector<uint32_t>& row_widths) {
  if (row_widths.empty()) return 0.0;
  std::map<size_t, int> width_counts;
  for (const uint32_t width : row_widths) ++width_counts[width];
  const double total = static_cast<double>(row_widths.size());
  double score = 0.0;
  for (const auto& [width, count] : width_counts) {
    if (width <= 1) continue;
    const double share = static_cast<double>(count) / total;
    const double w = static_cast<double>(width);
    score += share * share * (w - 1.0) / w;
  }
  return score;
}

/// Most frequent row width (ties prefer the wider width); 0 for an empty
/// parse. Threaded into SniffResult::modal_row_width as the parser's reserve
/// hint.
int ModalRowWidth(const std::vector<uint32_t>& row_widths) {
  std::map<size_t, int> width_counts;
  for (const uint32_t width : row_widths) ++width_counts[width];
  size_t mode_width = 0;
  int mode_count = 0;
  for (const auto& [width, count] : width_counts) {
    if (count > mode_count || (count == mode_count && width > mode_width)) {
      mode_width = width;
      mode_count = count;
    }
  }
  return static_cast<int>(mode_width);
}

bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

/// The five valid (group separator, decimal separator) pairs of Table 4,
/// mirrored lexically from numfmt::MatchesFormat. The csv module cannot link
/// against numfmt (numfmt's grids are built from csv::Grid, so the
/// dependency points the other way); the sniffer only needs to *recognize*
/// numbers, never to parse their values, so a match-only mirror is enough —
/// tests/csv_sniffer_test.cc pins the two against each other.
struct SeparatorPair {
  char group;    // '\0' = no digit grouping
  char decimal;
};
constexpr std::array<SeparatorPair, 5> kNumberFormats = {{
    {' ', ','},   // 12 345,67
    {' ', '.'},   // 12 345.67
    {',', '.'},   // 12,345.67
    {'\0', ','},  // 12345,67
    {'\0', '.'},  // 12345.67
}};

/// True when `text` is a complete number under the separator pair: optional
/// sign or accounting parentheses, an integer part of plain digits or 1-3
/// digits followed by exactly-3-digit groups, an optional decimal part split
/// on the *last* decimal separator, and an optional trailing '%' — the same
/// shape grammar as numfmt::MatchesFormat, minus its currency prefixes.
bool MatchesSeparators(std::string_view text, const SeparatorPair& format) {
  if (text.size() >= 2 && text.front() == '(' && text.back() == ')') {
    text = text.substr(1, text.size() - 2);
  } else if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
    text.remove_prefix(1);
  }
  if (!text.empty() && text.back() == '%') text.remove_suffix(1);
  if (text.empty()) return false;

  std::string_view integer_part = text;
  const size_t decimal_pos = text.rfind(format.decimal);
  if (decimal_pos != std::string_view::npos) {
    const std::string_view fraction = text.substr(decimal_pos + 1);
    integer_part = text.substr(0, decimal_pos);
    if (fraction.empty() || integer_part.empty()) return false;
    for (char c : fraction) {
      if (!IsAsciiDigit(c)) return false;
    }
  }

  // Plain digit run?
  bool plain = true;
  for (char c : integer_part) {
    if (!IsAsciiDigit(c)) {
      plain = false;
      break;
    }
  }
  if (plain) return !integer_part.empty();

  // Grouped form: 1-3 digits, then (separator + exactly 3 digits)+.
  if (format.group == '\0') return false;
  size_t pos = 0;
  size_t leading = 0;
  while (pos < integer_part.size() && IsAsciiDigit(integer_part[pos])) {
    ++pos;
    ++leading;
  }
  if (leading == 0 || leading > 3) return false;
  while (pos < integer_part.size()) {
    if (integer_part[pos] != format.group) return false;
    ++pos;
    for (int i = 0; i < 3; ++i, ++pos) {
      if (pos >= integer_part.size() || !IsAsciiDigit(integer_part[pos])) {
        return false;
      }
    }
  }
  return true;
}

/// Elects the per-candidate number format by counting, for each separator
/// pair, the cells that fully match it — the sniffer-local analogue of
/// numfmt::ElectFormat. Ties keep the earlier (Table 4 order) pair.
SeparatorPair ElectSeparators(const std::vector<std::string_view>& cells) {
  std::array<int, kNumberFormats.size()> counts{};
  for (const std::string_view cell : cells) {
    const std::string_view trimmed = Trim(cell);
    if (trimmed.empty()) continue;
    for (size_t f = 0; f < kNumberFormats.size(); ++f) {
      if (MatchesSeparators(trimmed, kNumberFormats[f])) ++counts[f];
    }
  }
  size_t best = 0;
  for (size_t f = 1; f < kNumberFormats.size(); ++f) {
    if (counts[f] > counts[best]) best = f;
  }
  return kNumberFormats[best];
}

/// Matches the common date/time shapes of open-portal tables: `1999-12-31`,
/// `31.12.1999`, `12/31/99`, and `23:59(:59)`. Years alone lex as numbers
/// already, so they need no case here.
bool LooksLikeDateOrTime(std::string_view text) {
  // Split on the single separator kind the text uses.
  const auto count_groups = [&](char sep, int* groups, int* digits_min,
                                int* digits_max) {
    *groups = 1;
    *digits_min = 1 << 20;
    *digits_max = 0;
    int run = 0;
    for (char c : text) {
      if (IsAsciiDigit(c)) {
        ++run;
      } else if (c == sep && run > 0) {
        ++*groups;
        if (run < *digits_min) *digits_min = run;
        if (run > *digits_max) *digits_max = run;
        run = 0;
      } else {
        return false;  // a character outside digits + this separator
      }
    }
    if (run == 0) return false;  // trailing separator
    if (run < *digits_min) *digits_min = run;
    if (run > *digits_max) *digits_max = run;
    return true;
  };
  for (char sep : {'-', '.', '/', ':'}) {
    int groups = 0, digits_min = 0, digits_max = 0;
    if (!count_groups(sep, &groups, &digits_min, &digits_max)) continue;
    if (sep == ':') {
      if ((groups == 2 || groups == 3) && digits_max <= 2) return true;
    } else if (groups == 3 && digits_min >= 1 && digits_max <= 4) {
      return true;
    }
  }
  return false;
}

/// Type plausibility: mean over cells of 1.0 for empty / number (under the
/// per-candidate elected separator pair) / date / time cells and
/// kTextCellScore for anything else.
double TypeScore(const std::vector<std::string_view>& cells) {
  if (cells.empty()) return 0.0;
  const SeparatorPair format = ElectSeparators(cells);
  double total = 0.0;
  for (const std::string_view cell : cells) {
    const std::string_view trimmed = Trim(cell);
    if (trimmed.empty() || LooksLikeDateOrTime(trimmed) ||
        MatchesSeparators(trimmed, format)) {
      total += 1.0;
    } else {
      total += kTextCellScore;
    }
  }
  return total / static_cast<double>(cells.size());
}

/// The prefix the consistency sniffer scores: at most kSniffPrefixBytes,
/// never cut mid-row (a truncated final row would count as a width outlier
/// under every candidate).
std::string_view SniffPrefix(std::string_view text) {
  if (text.size() <= kSniffPrefixBytes) return text;
  const size_t last_newline = text.rfind('\n', kSniffPrefixBytes);
  if (last_newline == std::string_view::npos) {
    return text.substr(0, kSniffPrefixBytes);
  }
  return text.substr(0, last_newline + 1);
}

}  // namespace

const std::vector<Dialect>& SniffCandidates() {
  // Candidate order encodes the tie-break preference: the RFC 4180 default
  // first, then delimiters in conventional order, double quote before single
  // quote, doubling-only before an escape character. Later candidates must
  // win strictly.
  static const std::vector<Dialect> kCandidates = [] {
    std::vector<Dialect> candidates;
    for (char delimiter : kCandidateDelimiters) {
      for (char quote : kCandidateQuotes) {
        for (char escape : kCandidateEscapes) {
          candidates.push_back(Dialect{delimiter, quote, escape});
        }
      }
    }
    return candidates;
  }();
  return kCandidates;
}

SniffResult SniffDialect(std::string_view text) {
  obs::ScopedSpan span("csv.sniff");
  const bool obs_on = obs::Registry::enabled();
  if (obs_on) obs::Count("csv.sniff.files");
  const std::string_view prefix = SniffPrefix(StripBom(text));
  const bool has_backslash = prefix.find('\\') != std::string_view::npos;

  SniffResult best;
  best.dialect = Dialect{',', '"'};
  best.score = -1.0;
  // Every candidate parses into views of `prefix` plus this one arena, which
  // holds only the cells an escape or doubled quote rewrote.
  CellArena arena;
  for (const Dialect& candidate : SniffCandidates()) {
    // Without a backslash in the prefix the escape variant parses
    // identically to the doubling-only variant; skip the duplicate.
    if (candidate.escape != '\0' && !has_backslash) continue;
    const ParsedRows parsed = ParseStructural(prefix, candidate, arena);
    const double pattern = PatternScore(parsed.row_widths);
    // A dialect that never splits anything carries no structural
    // evidence; its (possibly high) type score must not outrank one that
    // does split.
    const double type = pattern > 0.0 ? TypeScore(parsed.cells) : 0.0;
    const double score = pattern * type;
    if (obs_on) obs::Count("csv.sniff.candidates");
    if (score > best.score) {
      best.dialect = candidate;
      best.score = score;
      best.pattern_score = pattern;
      best.type_score = type;
      best.modal_row_width = ModalRowWidth(parsed.row_widths);
    }
  }
  if (best.score <= 0.0) {
    // No delimiter produced structure; fall back to the RFC 4180 default.
    best = SniffResult{};
    best.dialect = Dialect{',', '"'};
  }
  return best;
}

}  // namespace aggrecol::csv
