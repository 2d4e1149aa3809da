#include "csv/parser.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "csv/scanner.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aggrecol::csv {
namespace {

enum class State {
  kFieldStart,    // at the beginning of a field
  kUnquoted,      // inside an unquoted field
  kQuoted,        // inside a quoted field
  kQuoteInQuote,  // just saw a quote inside a quoted field
};

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

}  // namespace

std::string_view StripBom(std::string_view text) {
  if (text.substr(0, kUtf8Bom.size()) == kUtf8Bom) {
    text.remove_prefix(kUtf8Bom.size());
  }
  return text;
}

namespace {

// Accumulates one field of the structural walk. A field whose decoded
// content is a single contiguous slice of the input stays zero-copy; the
// moment content becomes non-contiguous (doubled quote, escape sequence,
// malformed-quote repair) it spills into a scratch buffer and is interned
// into the arena when the field ends.
class FieldBuilder {
 public:
  FieldBuilder(std::string_view text, CellArena& arena)
      : text_(text), arena_(&arena) {}

  // Appends the byte at `pos` verbatim.
  void PushLiteral(size_t pos) {
    if (dirty_) {
      scratch_.push_back(text_[pos]);
      return;
    }
    if (len_ == 0) {
      begin_ = pos;
      len_ = 1;
      return;
    }
    if (begin_ + len_ == pos) {
      ++len_;
      return;
    }
    Spill();
    scratch_.push_back(text_[pos]);
  }

  // Appends `length` bytes starting at `pos` verbatim.
  void PushSpan(size_t pos, size_t length) {
    if (dirty_) {
      scratch_.append(text_.substr(pos, length));
      return;
    }
    if (len_ == 0) {
      begin_ = pos;
      len_ = length;
      return;
    }
    if (begin_ + len_ == pos) {
      len_ += length;
      return;
    }
    Spill();
    scratch_.append(text_.substr(pos, length));
  }

  // Appends a synthesized character not present at a usable input position.
  void PushChar(char c) {
    if (!dirty_) Spill();
    scratch_.push_back(c);
  }

  bool Empty() const { return dirty_ ? scratch_.empty() : len_ == 0; }

  // Finishes the field: a clean field is a free slice of the input, a dirty
  // one is interned into the arena. Resets for the next field.
  std::string_view Take() {
    std::string_view out;
    if (dirty_) {
      arena_->CountIntern();
      out = arena_->Intern(scratch_);
    } else if (len_ > 0) {
      out = text_.substr(begin_, len_);
    }
    begin_ = 0;
    len_ = 0;
    dirty_ = false;
    scratch_.clear();
    return out;
  }

 private:
  void Spill() {
    scratch_.assign(text_.substr(begin_, len_));
    dirty_ = true;
  }

  // aggrecol-lint: allow(L7): FieldBuilder is a transient borrower — it lives
  // only inside ParseStructural's frame, where the caller's input outlives it
  std::string_view text_;
  CellArena* arena_;
  size_t begin_ = 0;
  size_t len_ = 0;
  bool dirty_ = false;
  std::string scratch_;
};

}  // namespace

// Locates structural bytes with the scanner, then walks the state machine
// jumping position-to-position. Per state the checks run in one fixed order
// (escape, quote, delimiter, CR, LF); kQuoteInQuote has no escape check and
// the quote char is literal in kUnquoted. tests/oracle/csv_reference.cc keeps
// the byte-at-a-time original, and tests/csv_ingest_test.cc pins the two
// row by row.
ParsedRows ParseStructural(std::string_view raw, const Dialect& dialect,
                           CellArena& arena, const ParseHints& hints) {
  const std::string_view text = StripBom(raw);
  const char escape = (dialect.escape != '\0' && dialect.escape != dialect.quote &&
                       dialect.escape != dialect.delimiter)
                          ? dialect.escape
                          : '\0';

  StructuralSet set;
  set.Add(dialect.delimiter);
  set.Add(dialect.quote);
  set.Add('\r');
  set.Add('\n');
  if (escape != '\0') set.Add(escape);
  const ScanTier tier =
      EffectiveScanTier(ActiveScanTier(), text.size(), set.count);

  FieldBuilder field(text, arena);
  std::vector<std::string_view> cells;
  std::vector<uint32_t> row_widths;
  size_t row_start = 0;
  State state = State::kFieldStart;
  bool row_has_content = false;

  auto end_field = [&]() {
    cells.push_back(field.Take());
    state = State::kFieldStart;
  };
  auto end_row = [&]() {
    end_field();
    row_widths.push_back(static_cast<uint32_t>(cells.size() - row_start));
    row_start = cells.size();
    row_has_content = false;
  };
  auto consume_escaped = [&](size_t pos) {
    if (pos + 1 < text.size()) {
      field.PushLiteral(pos + 1);
      return true;
    }
    field.PushLiteral(pos);  // dangling escape kept literally (== escape char)
    return false;
  };
  // A run of non-structural bytes. A byte-at-a-time walk would take its
  // per-state `else` branch for each byte: from kFieldStart the first byte
  // starts an unquoted field, from kQuoteInQuote it is the malformed-quote
  // repair (keep the stray bytes, drop to kUnquoted).
  auto literal_run = [&](size_t start, size_t length) {
    if (state == State::kFieldStart) {
      state = State::kUnquoted;
      row_has_content = true;
    } else if (state == State::kQuoteInQuote) {
      state = State::kUnquoted;
    }
    field.PushSpan(start, length);
  };

  std::vector<uint32_t> positions;
  size_t cursor = 0;  // next unconsumed byte
  for (size_t block = 0; block < text.size(); block += kScanBlockBytes) {
    const size_t block_len = std::min(kScanBlockBytes, text.size() - block);
    positions.clear();
    ScanStructural(text.substr(block, block_len), set, tier, positions);
    // Every field ends at a structural byte or EOF, so positions.size() + 1
    // bounds the cells this block can add: one reserve, no regrowth.
    cells.reserve(cells.size() + positions.size() + 1);
    if (block == 0 && hints.expected_columns > 0) {
      row_widths.reserve(
          cells.capacity() / static_cast<size_t>(hints.expected_columns) + 1);
    }
    for (const uint32_t rel : positions) {
      const size_t pos = block + rel;
      if (pos < cursor) continue;  // swallowed by an escape sequence
      if (pos > cursor) literal_run(cursor, pos - cursor);
      cursor = pos + 1;
      const char c = text[pos];
      switch (state) {
        case State::kFieldStart:
          if (escape != '\0' && c == escape) {
            if (consume_escaped(pos)) cursor = pos + 2;
            state = State::kUnquoted;
            row_has_content = true;
          } else if (c == dialect.quote) {
            state = State::kQuoted;
            row_has_content = true;
          } else if (c == dialect.delimiter) {
            end_field();
            row_has_content = true;
          } else if (c == '\r') {
            if (pos + 1 >= text.size() || text[pos + 1] != '\n') end_row();
          } else {  // '\n'
            end_row();
          }
          break;
        case State::kUnquoted:
          if (escape != '\0' && c == escape) {
            if (consume_escaped(pos)) cursor = pos + 2;
          } else if (c == dialect.delimiter) {
            end_field();
          } else if (c == '\r') {
            if (pos + 1 >= text.size() || text[pos + 1] != '\n') end_row();
          } else if (c == '\n') {
            end_row();
          } else {
            field.PushLiteral(pos);  // the quote char is literal here
          }
          break;
        case State::kQuoted:
          if (escape != '\0' && c == escape) {
            if (consume_escaped(pos)) cursor = pos + 2;
          } else if (c == dialect.quote) {
            state = State::kQuoteInQuote;
          } else {
            field.PushLiteral(pos);  // delimiter/CR/LF are content in quotes
          }
          break;
        case State::kQuoteInQuote:
          if (c == dialect.quote) {
            // Doubled quote encodes one literal quote. The previous byte is
            // the first quote of the pair, so the slice stays contiguous.
            if (pos > 0 && text[pos - 1] == dialect.quote) {
              field.PushLiteral(pos - 1);
            } else {
              field.PushChar(dialect.quote);
            }
            state = State::kQuoted;
          } else if (c == dialect.delimiter) {
            end_field();
          } else if (c == '\r') {
            state = State::kUnquoted;
            if (pos + 1 >= text.size() || text[pos + 1] != '\n') end_row();
          } else if (c == '\n') {
            end_row();
          } else {
            field.PushLiteral(pos);  // stray byte after closing quote
            state = State::kUnquoted;
          }
          break;
      }
    }
  }
  if (cursor < text.size()) literal_run(cursor, text.size() - cursor);
  if (row_has_content || !field.Empty() || cells.size() > row_start) {
    end_row();
  }
  return ParsedRows{std::move(cells), std::move(row_widths)};
}

namespace {

// Parses `stable`, whose bytes `arena` owns or keeps alive, into a grid
// backed by that arena.
Grid ParseIntoArena(std::string_view stable, const Dialect& dialect,
                    const ParseHints& hints, std::shared_ptr<CellArena> arena) {
  ParsedRows parsed = ParseStructural(stable, dialect, *arena, hints);
  Grid grid = Grid::FromParsed(std::move(parsed.cells), parsed.row_widths,
                               std::move(arena));
  if (obs::Registry::enabled()) {
    obs::Count("csv.parse.grids");
    obs::Count("csv.parse.rows", grid.rows());
    obs::Count("csv.parse.cells",
               static_cast<size_t>(grid.rows()) * grid.columns());
  }
  return grid;
}

}  // namespace

Grid ParseGrid(std::string_view text, const Dialect& dialect,
               const ParseHints& hints) {
  obs::ScopedSpan span("csv.parse");
  auto arena = std::make_shared<CellArena>();
  // One bulk copy so the grid owns its bytes; the MappedFile overload
  // avoids even this.
  const std::string_view stable = arena->AddBlock(text);
  return ParseIntoArena(stable, dialect, hints, std::move(arena));
}

Grid ParseGrid(MappedFile file, const Dialect& dialect,
               const ParseHints& hints) {
  obs::ScopedSpan span("csv.parse");
  auto arena = std::make_shared<CellArena>();
  auto holder = std::make_shared<MappedFile>(std::move(file));
  const std::string_view stable = holder->view();
  arena->KeepAlive(std::move(holder));
  return ParseIntoArena(stable, dialect, hints, std::move(arena));
}

}  // namespace aggrecol::csv
