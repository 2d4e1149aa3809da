#include "tools/lint/linter.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "tools/lint/source_lexer.h"
#include "tools/lint/symbols.h"

namespace aggrecol::lint {
namespace {

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool Contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Rule scoping. Paths are repo-relative with forward slashes.
// ---------------------------------------------------------------------------

// L1: the sanctioned wrapper is the only place allowed to host a fallback.
bool InScopeL1(std::string_view path) {
  return path != "src/numfmt/parse_double.h";
}

// L2: float comparisons are policed where Def. 5 tolerance matters.
bool InScopeL2(std::string_view path) {
  return StartsWith(path, "src/core/") && path != "src/core/approx.h";
}

// L3: code paths whose output feeds detection results must be deterministic.
bool InScopeL3(std::string_view path) {
  for (std::string_view prefix :
       {"src/core/", "src/eval/", "src/numfmt/", "src/csv/", "src/structure/",
        "src/cellclass/", "src/baselines/"}) {
    if (StartsWith(path, prefix)) return true;
  }
  return false;
}

// L4: production and bench code parallelize via util::ThreadPool only.
bool InScopeL4(std::string_view path) {
  if (path == "src/util/thread_pool.h" || path == "src/util/thread_pool.cc") {
    return false;
  }
  return StartsWith(path, "src/") || StartsWith(path, "bench/");
}

// L5: instrumented pipeline code lives under src/.
bool InScopeL5(std::string_view path) { return StartsWith(path, "src/"); }

// L6: csv::MappedFile is the single sanctioned owner of memory mappings.
bool InScopeL6(std::string_view path) {
  return path != "src/csv/mapped_file.h" && path != "src/csv/mapped_file.cc";
}

// L7: the zero-copy pipeline, where cells are views into a grid's arena.
// Same result-bearing set as L3 — everything that touches Grid cells.
bool InScopeL7(std::string_view path) { return InScopeL3(path); }

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

bool IsPunct(const Token& token, std::string_view text) {
  return token.kind == TokenKind::kPunct && token.text == text;
}

bool IsIdent(const Token& token, std::string_view text) {
  return token.kind == TokenKind::kIdentifier && token.text == text;
}

// True for number tokens spelled as floating-point (a '.' or a decimal
// exponent; hex literals excluded).
bool IsFloatLiteral(const Token& token) {
  if (token.kind != TokenKind::kNumber) return false;
  const std::string& text = token.text;
  if (text.size() > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    return false;
  }
  return Contains(text, ".") || Contains(text, "e") || Contains(text, "E");
}

// True when a float literal spells exactly zero ("0.0", "0.", ".0", "0.0f").
bool IsZeroLiteral(const Token& token) {
  std::string digits;
  for (const char c : token.text) {
    if (c == 'f' || c == 'F' || c == 'l' || c == 'L' || c == '\'') continue;
    digits += c;
  }
  double value = 1.0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  return ec == std::errc() && ptr == digits.data() + digits.size() &&
         value == 0.0;
}

// Operand-window boundary for the L2 scan: punctuation that ends the operand
// expression of a comparison. Additive operators are deliberately not
// boundaries so `a + 0.5 == b` still sees the literal.
bool IsWindowBoundary(const Token& token) {
  if (token.kind != TokenKind::kPunct) return false;
  static const std::set<std::string> kBoundaries = {
      "(", ")", "[", "]", "{", "}", ";", ",",  "?",  ":",  "=",
      "<", ">", "<=", ">=", "&&", "||", "!", "<<", ">>", "=="};
  return kBoundaries.count(token.text) > 0;
}

// Identifier substrings that mark a value as a derived floating-point score.
bool IsFloatSuggestiveIdent(const Token& token) {
  if (token.kind != TokenKind::kIdentifier) return false;
  for (std::string_view needle :
       {"error", "ratio", "sufficiency", "coverage", "epsilon"}) {
    if (Contains(token.text, needle)) return true;
  }
  return false;
}

struct FileContext {
  std::string_view path;
  const std::vector<Token>& tokens;
  const Options& options;
  std::vector<Diagnostic>* out;

  void Report(std::string rule, int line, std::string message) const {
    out->push_back(Diagnostic{std::string(path), line, std::move(rule),
                              std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// L1 — locale-dependent numeric parsing.
// ---------------------------------------------------------------------------

void CheckL1(const FileContext& context) {
  if (!InScopeL1(context.path)) return;
  static const std::set<std::string> kParsers = {
      "atof", "strtod", "strtof", "strtold", "stod", "stof", "stold"};
  const auto& tokens = context.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        kParsers.count(tokens[i].text) == 0) {
      continue;
    }
    if (i + 1 >= tokens.size() || !IsPunct(tokens[i + 1], "(")) continue;
    if (i > 0 && (IsPunct(tokens[i - 1], ".") || IsPunct(tokens[i - 1], "->"))) {
      continue;  // member function of some unrelated class
    }
    context.Report("L1", tokens[i].line,
                   "locale-dependent parser `" + tokens[i].text +
                       "` — route through numfmt::ParseDouble "
                       "(src/numfmt/parse_double.h)");
  }
}

// ---------------------------------------------------------------------------
// L2 — raw floating-point ==/!= in src/core/.
// ---------------------------------------------------------------------------

void CheckL2(const FileContext& context) {
  if (!InScopeL2(context.path)) return;
  const auto& tokens = context.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsPunct(tokens[i], "==") && !IsPunct(tokens[i], "!=")) continue;

    // Collect the operand windows on both sides, bounded by expression
    // punctuation and a small radius.
    std::vector<const Token*> window;
    for (size_t left = i, steps = 0; left > 0 && steps < 8; ++steps) {
      --left;
      if (IsWindowBoundary(tokens[left])) break;
      window.push_back(&tokens[left]);
    }
    const size_t left_size = window.size();
    for (size_t right = i + 1, steps = 0;
         right < tokens.size() && steps < 8; ++right, ++steps) {
      if (IsWindowBoundary(tokens[right])) break;
      window.push_back(&tokens[right]);
    }

    bool nonzero_float = false;
    bool zero_float = false;
    for (const Token* token : window) {
      if (!IsFloatLiteral(*token)) continue;
      if (IsZeroLiteral(*token)) {
        zero_float = true;
      } else {
        nonzero_float = true;
      }
    }
    bool suggestive_left = false;
    bool suggestive_right = false;
    for (size_t w = 0; w < window.size(); ++w) {
      if (!IsFloatSuggestiveIdent(*window[w])) continue;
      (w < left_size ? suggestive_left : suggestive_right) = true;
    }

    if (nonzero_float || (!zero_float && suggestive_left && suggestive_right)) {
      context.Report("L2", tokens[i].line,
                     "raw floating-point `" + tokens[i].text +
                         "` — use core::ApproxEq (src/core/approx.h); exact "
                         "comparisons against 0.0 are the only whitelisted "
                         "form");
    }
  }
}

// ---------------------------------------------------------------------------
// L3 — nondeterminism primitives in result-bearing code paths.
// ---------------------------------------------------------------------------

void CheckL3(const FileContext& context) {
  if (!InScopeL3(context.path)) return;
  static const std::set<std::string> kPrimitives = {
      "rand", "srand", "random_device", "system_clock"};
  const auto& tokens = context.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier) continue;
    const bool member_access =
        i > 0 && (IsPunct(tokens[i - 1], ".") || IsPunct(tokens[i - 1], "->"));
    if (kPrimitives.count(tokens[i].text) > 0 && !member_access) {
      context.Report("L3", tokens[i].line,
                     "nondeterminism primitive `" + tokens[i].text +
                         "` in a result-bearing code path — seed an mt19937 "
                         "explicitly and use steady_clock for timing");
      continue;
    }
    if (IsIdent(tokens[i], "time") && !member_access && i + 1 < tokens.size() &&
        IsPunct(tokens[i + 1], "(")) {
      context.Report("L3", tokens[i].line,
                     "wall-clock `time()` in a result-bearing code path — "
                     "results must not depend on the current time");
    }
  }
}

// ---------------------------------------------------------------------------
// L4 — raw threading primitives bypassing util::ThreadPool.
// ---------------------------------------------------------------------------

void CheckL4(const FileContext& context) {
  if (!InScopeL4(context.path)) return;
  const auto& tokens = context.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (IsIdent(tokens[i], "pthread_create")) {
      context.Report("L4", tokens[i].line,
                     "raw pthread_create — submit work to util::ThreadPool");
      continue;
    }
    // std::thread / std::jthread / std::async; static member access like
    // std::thread::hardware_concurrency() is fine.
    if (!IsIdent(tokens[i], "std") || i + 2 >= tokens.size() ||
        !IsPunct(tokens[i + 1], "::")) {
      continue;
    }
    const Token& name = tokens[i + 2];
    const bool static_member =
        i + 3 < tokens.size() && IsPunct(tokens[i + 3], "::");
    if ((IsIdent(name, "thread") && !static_member) ||
        IsIdent(name, "jthread") || IsIdent(name, "async")) {
      context.Report("L4", name.line,
                     "raw std::" + name.text +
                         " — parallelism goes through util::ThreadPool so "
                         "merges stay deterministic and cancellable");
    }
  }
}

// ---------------------------------------------------------------------------
// L5 — obs metric-name literals must match the documented catalog.
// ---------------------------------------------------------------------------

void CheckL5(const FileContext& context) {
  if (!InScopeL5(context.path) || context.options.obs_catalog.empty()) return;
  static const std::set<std::string> kEmitters = {
      "Count", "GaugeSet", "GaugeMax", "Observe", "ScopedSpan"};
  const std::string& catalog = context.options.obs_catalog;
  const auto& tokens = context.tokens;
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i], "obs") || !IsPunct(tokens[i + 1], "::") ||
        tokens[i + 2].kind != TokenKind::kIdentifier ||
        kEmitters.count(tokens[i + 2].text) == 0) {
      continue;
    }
    size_t cursor = i + 3;
    // `obs::ScopedSpan span("...")` declares a variable before the paren.
    if (cursor < tokens.size() &&
        tokens[cursor].kind == TokenKind::kIdentifier) {
      ++cursor;
    }
    if (cursor >= tokens.size() || !IsPunct(tokens[cursor], "(")) continue;
    ++cursor;
    if (cursor >= tokens.size() || tokens[cursor].kind != TokenKind::kString) {
      continue;  // dynamically built name; not statically checkable
    }
    const Token& literal = tokens[cursor];
    const bool concatenated =
        cursor + 1 < tokens.size() && IsPunct(tokens[cursor + 1], "+");
    if (concatenated) {
      // A stem like "numfmt.elect." — the dynamic tail must be documented as
      // a <placeholder> entry sharing the stem.
      if (!Contains(catalog, literal.text + "<")) {
        context.Report("L5", literal.line,
                       "obs name stem \"" + literal.text +
                           "\" has no <placeholder> entry in "
                           "docs/OBSERVABILITY.md");
      }
      continue;
    }
    if (!Contains(catalog, literal.text)) {
      context.Report("L5", literal.line,
                     "obs name \"" + literal.text +
                         "\" is not in the docs/OBSERVABILITY.md catalog");
    }
  }
}

// ---------------------------------------------------------------------------
// L6 — raw memory-mapping calls outside csv::MappedFile.
// ---------------------------------------------------------------------------

void CheckL6(const FileContext& context) {
  if (!InScopeL6(context.path)) return;
  static const std::set<std::string> kMappers = {
      "mmap",           "mmap64",
      "munmap",         "MapViewOfFile",
      "UnmapViewOfFile", "CreateFileMapping",
      "CreateFileMappingA", "CreateFileMappingW"};
  const auto& tokens = context.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier ||
        kMappers.count(tokens[i].text) == 0) {
      continue;
    }
    if (i > 0 && (IsPunct(tokens[i - 1], ".") || IsPunct(tokens[i - 1], "->"))) {
      continue;  // member of some unrelated class
    }
    context.Report("L6", tokens[i].line,
                   "raw memory-mapping call `" + tokens[i].text +
                       "` — all mappings go through csv::MappedFile "
                       "(src/csv/mapped_file.h) so view lifetimes stay tied "
                       "to one owner");
  }
}

// ---------------------------------------------------------------------------
// L7 — view escapes out of the owning grid/arena's lifetime.
//
// Built on the symbol pass: per-class member checks, namespace-scope checks,
// and a per-function dataflow pass that tracks which locals own their bytes
// and which views borrow from them.
// ---------------------------------------------------------------------------

// Declaration type strings are space-joined tokens ("std :: vector < std ::
// string_view >"), so substring matching works on whole identifiers.
bool IsViewType(const std::string& type) {
  return Contains(type, "string_view") || Contains(type, "span") ||
         Contains(type, "AxisView");
}

// By-value local types that own the bytes a view may point into. References
// and pointers are excluded: their referent outlives the function by the
// caller's contract.
bool IsOwnerValueType(const std::string& type) {
  if (Contains(type, "&") || Contains(type, "*")) return false;
  if (Contains(type, "string_view")) return false;
  return Contains(type, "Grid") || Contains(type, "MappedFile") ||
         Contains(type, "CellArena") || Contains(type, "string");
}

// Member types that may legitimately anchor an owns(<member>) contract.
bool IsOwnerMemberType(const std::string& type) {
  if (Contains(type, "shared_ptr") || Contains(type, "unique_ptr")) {
    return true;
  }
  if (Contains(type, "string_view")) return false;
  return Contains(type, "string") || Contains(type, "MappedFile") ||
         Contains(type, "CellArena") || Contains(type, "vector < char >");
}

// Keywords that terminate the backward type walk of a local declaration.
bool IsStatementKeyword(const std::string& text) {
  static const std::set<std::string> kKeywords = {
      "return", "if",     "else",  "while",  "for",      "switch",
      "case",   "break",  "continue", "goto", "do",      "new",
      "delete", "throw",  "using", "typedef", "sizeof",  "co_return"};
  return kKeywords.count(text) > 0;
}

struct LocalVar {
  std::string name;
  std::string type;
  size_t decl_index = 0;  // token index of the name
  bool owner = false;
  bool view = false;
  bool is_static = false;
};

// Collects local variable declarations inside one function body: an
// identifier whose next token starts a declarator tail ('=', ';', '{', '(',
// or the ':' of a range-for) and whose leading tokens form a type.
std::vector<LocalVar> CollectLocals(const std::vector<Token>& tokens,
                                    size_t begin, size_t end) {
  std::vector<LocalVar> locals;
  for (size_t i = begin; i < end; ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier) continue;
    if (i + 1 >= end) break;
    const Token& next = tokens[i + 1];
    if (!IsPunct(next, "=") && !IsPunct(next, ";") && !IsPunct(next, "{") &&
        !IsPunct(next, "(") && !IsPunct(next, ":")) {
      continue;
    }
    if (IsPunct(next, ":") && i + 2 < end && IsPunct(tokens[i + 2], ":")) {
      continue;  // `::` split across contexts; not a range-for
    }
    // Walk back over type tokens. A declaration needs at least one, and the
    // token before the name must not be an access/scope operator.
    if (i > begin && (IsPunct(tokens[i - 1], ".") ||
                      IsPunct(tokens[i - 1], "->") ||
                      IsPunct(tokens[i - 1], "::"))) {
      continue;
    }
    size_t b = i;
    while (b > begin) {
      const Token& token = tokens[b - 1];
      if (token.kind == TokenKind::kIdentifier &&
          IsStatementKeyword(token.text)) {
        break;
      }
      const bool type_ish =
          token.kind == TokenKind::kIdentifier || IsPunct(token, "::") ||
          IsPunct(token, "<") || IsPunct(token, ">") || IsPunct(token, ">>") ||
          IsPunct(token, "&") || IsPunct(token, "*");
      if (!type_ish) break;
      --b;
    }
    if (b == i) continue;  // no leading type: an expression, not a declaration
    std::string type;
    for (size_t k = b; k < i; ++k) {
      if (!type.empty()) type += ' ';
      type += tokens[k].text;
    }
    if (type == "auto") continue;  // unknown referent; cannot classify
    if (StartsWith(type, "else") || type.back() == ':') continue;
    LocalVar var;
    var.name = tokens[i].text;
    var.type = type;
    var.decl_index = i;
    var.owner = IsOwnerValueType(type);
    var.view = IsViewType(type);
    var.is_static = Contains(type, "static");
    if (var.owner || var.view) locals.push_back(std::move(var));
  }
  return locals;
}

// The initializer/right-hand-side token range starting at `from`: up to the
// statement's ';', or — for range-for initializers — the loop head's ')'.
size_t ExpressionEnd(const std::vector<Token>& tokens, size_t from,
                     size_t end) {
  int depth = 0;
  for (size_t i = from; i < end; ++i) {
    if (IsPunct(tokens[i], "(")) ++depth;
    if (IsPunct(tokens[i], ")")) {
      if (depth == 0) return i;
      --depth;
    }
    if (IsPunct(tokens[i], ";") && depth == 0) return i;
  }
  return end;
}

// Owner methods that hand out views into the owner's storage. Used to decide
// whether an expression mentioning an owner actually produces a view.
bool IsViewProducer(const std::string& name) {
  static const std::set<std::string> kProducers = {
      "at",   "row",  "cell", "Take", "Intern", "substr",
      "data", "view", "text", "bytes", "contents"};
  return kProducers.count(name) > 0;
}

// What an expression dataflow-derives from: scans [from, to) for identifiers
// that are tracked owners or tainted views.
struct Derivation {
  std::string owner;        // first owner local the expression references
  bool via_view = false;    // through a tainted view local
  bool produces_view = false;  // owner reference goes through a view producer
};

Derivation DeriveFrom(const std::vector<Token>& tokens, size_t from, size_t to,
                      const std::vector<LocalVar>& locals,
                      const std::map<std::string, std::string>& taint) {
  Derivation derived;
  bool view_ctor = false;  // `std::string_view(...)` / `span(...)` in range
  for (size_t i = from; i < to; ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier) continue;
    if (tokens[i].text == "string_view" || tokens[i].text == "span") {
      view_ctor = true;
    }
    const auto tainted = taint.find(tokens[i].text);
    if (tainted != taint.end()) {
      if (derived.owner.empty()) derived.owner = tainted->second;
      derived.via_view = true;
      derived.produces_view = true;
      continue;
    }
    for (const LocalVar& local : locals) {
      if (!local.owner || local.name != tokens[i].text) continue;
      if (derived.owner.empty()) derived.owner = local.name;
      // `grid.at(...)`, `arena.Intern(...)`: the call yields a view into the
      // owner. A bare mention (e.g. `grid.rows()`) does not.
      if (i + 3 < to &&
          (IsPunct(tokens[i + 1], ".") || IsPunct(tokens[i + 1], "->")) &&
          tokens[i + 2].kind == TokenKind::kIdentifier &&
          IsViewProducer(tokens[i + 2].text) && IsPunct(tokens[i + 3], "(")) {
        derived.produces_view = true;
      }
    }
  }
  // A view constructed straight from the owner — `string_view(s)` — produces
  // a borrow even without going through a producer method.
  if (!derived.owner.empty() && view_ctor) derived.produces_view = true;
  return derived;
}

// True when [from, to) constructs an allocating std::string temporary
// (`std::string(...)` / `std::string{...}`).
bool HasStringTemporary(const std::vector<Token>& tokens, size_t from,
                        size_t to) {
  for (size_t i = from; i + 1 < to; ++i) {
    if (!IsIdent(tokens[i], "string")) continue;
    if (i >= 2 && !IsPunct(tokens[i - 1], "::")) continue;
    if (IsPunct(tokens[i + 1], "(") || IsPunct(tokens[i + 1], "{")) {
      return true;
    }
  }
  return false;
}

struct L7Symbols {
  const SymbolIndex& symbols;
  const std::vector<OwnsAnnotation>& owns;
};

// Does `def` (a class) carry a valid owns() contract? Returns the annotation
// or nullptr; invalid annotations are reported by the caller.
const OwnsAnnotation* ClassOwns(const ClassDef& def,
                                const std::vector<OwnsAnnotation>& owns) {
  for (const OwnsAnnotation& annotation : owns) {
    if (annotation.line >= def.line && annotation.line <= def.end_line) {
      return &annotation;
    }
  }
  return nullptr;
}

// Is `fn` sanctioned for view sharing — inside a class with an owns()
// contract, a method of such a class, or carrying a function-level owns()?
bool FunctionSanctioned(const FunctionDef& fn, const L7Symbols& context,
                        const std::vector<Token>& tokens) {
  const ClassDef* enclosing = context.symbols.EnclosingClass(fn.body_begin);
  if (enclosing != nullptr &&
      ClassOwns(*enclosing, context.owns) != nullptr) {
    return true;
  }
  const size_t scope_pos = fn.qualified.find("::");
  if (scope_pos != std::string::npos) {
    const std::string cls = fn.qualified.substr(0, scope_pos);
    for (const ClassDef& def : context.symbols.classes) {
      if (def.name == cls && ClassOwns(def, context.owns) != nullptr) {
        return true;
      }
    }
  }
  const int body_end_line = fn.body_end > 0 && fn.body_end <= tokens.size()
                                ? tokens[fn.body_end - 1].line
                                : fn.line;
  for (const OwnsAnnotation& annotation : context.owns) {
    if (annotation.line >= fn.line && annotation.line <= body_end_line) {
      return true;
    }
  }
  return false;
}

void CheckL7(const FileContext& context, const LexResult& lexed,
             const SymbolIndex& symbols) {
  if (!InScopeL7(context.path)) return;
  const auto& tokens = context.tokens;
  const L7Symbols l7{symbols, lexed.owns};

  // (a) Class members of view type need an owns() contract naming an owning
  // member, unless they are constexpr literals.
  for (const ClassDef& def : symbols.classes) {
    const OwnsAnnotation* owns = ClassOwns(def, lexed.owns);
    if (owns != nullptr) {
      bool anchored = false;
      for (const MemberVar& member : def.members) {
        if (member.name == owns->member && IsOwnerMemberType(member.type)) {
          anchored = true;
        }
      }
      if (!anchored) {
        context.Report("L7", owns->line,
                       "owns(" + owns->member + ") names no owning member of " +
                           def.name +
                           " — the contract must point at the shared_ptr/"
                           "arena/string member that keeps the views alive");
      }
    }
    for (const MemberVar& member : def.members) {
      if (!IsViewType(member.type) || member.constexpr_literal) continue;
      if (owns != nullptr) continue;  // sanctioned borrower
      context.Report(
          "L7", member.line,
          "view-typed member `" + member.name + "` of " + def.name +
              " can dangle when the backing buffer dies — either hold the "
              "owner (shared arena) and declare `// aggrecol-lint: "
              "owns(<member>)`, or suppress with a lifetime argument");
    }
  }

  // (b) Namespace-scope views must be constexpr/literal: a global view into
  // runtime-allocated data outlives every owner.
  for (const GlobalVar& var : symbols.globals) {
    if (!IsViewType(var.type)) continue;
    if (var.literal_init || Contains(var.type, "constexpr")) continue;
    context.Report("L7", var.line,
                   "namespace-scope view `" + var.name +
                       "` is initialized from non-literal data — it will "
                       "outlive whatever owns those bytes");
  }

  // (c)+(d) Per-function dataflow: track owner locals and view provenance,
  // then flag returns and member stores that let a borrowed view outlive its
  // owner.
  for (const FunctionDef& fn : symbols.functions) {
    if (fn.body_end <= fn.body_begin || fn.body_end > tokens.size()) continue;
    const size_t begin = fn.body_begin + 1;
    const size_t end = fn.body_end - 1;
    const std::vector<LocalVar> locals = CollectLocals(tokens, begin, end);
    bool has_owner = false;
    for (const LocalVar& local : locals) has_owner |= local.owner;
    const bool returns_view = IsViewType(fn.return_type);
    if (!has_owner && !returns_view) continue;

    // Taint pass: view locals initialized or assigned from owner locals (or
    // from already-tainted views) borrow those owners' storage.
    std::map<std::string, std::string> taint;
    for (const LocalVar& local : locals) {
      if (!local.view) continue;
      const size_t to = ExpressionEnd(tokens, local.decl_index + 1, end);
      const Derivation derived =
          DeriveFrom(tokens, local.decl_index + 1, to, locals, taint);
      if (!derived.owner.empty()) taint[local.name] = derived.owner;
      if (local.is_static && !derived.owner.empty()) {
        context.Report("L7", tokens[local.decl_index].line,
                       "static view `" + local.name +
                           "` borrows from function-local owner `" +
                           derived.owner +
                           "` — it dangles on every call after the first");
      }
    }
    // Assignments after declaration: `view = owner.at(...)`.
    for (size_t i = begin; i < end; ++i) {
      if (tokens[i].kind != TokenKind::kIdentifier || i + 1 >= end ||
          !IsPunct(tokens[i + 1], "=")) {
        continue;
      }
      bool is_view_local = false;
      for (const LocalVar& local : locals) {
        if (local.view && local.name == tokens[i].text) is_view_local = true;
      }
      if (!is_view_local) continue;
      const size_t to = ExpressionEnd(tokens, i + 2, end);
      const Derivation derived = DeriveFrom(tokens, i + 2, to, locals, taint);
      if (!derived.owner.empty()) taint[tokens[i].text] = derived.owner;
    }

    const bool sanctioned = FunctionSanctioned(fn, l7, tokens);

    // Return escapes: a view-returning function must not return borrows of
    // function-local owners (including std::string temporaries).
    if (returns_view) {
      for (size_t i = begin; i < end; ++i) {
        if (!IsIdent(tokens[i], "return")) continue;
        const size_t to = ExpressionEnd(tokens, i + 1, end);
        const Derivation derived =
            DeriveFrom(tokens, i + 1, to, locals, taint);
        if (!derived.owner.empty() && !sanctioned) {
          context.Report("L7", tokens[i].line,
                         "returns a view borrowing function-local owner `" +
                             derived.owner + "` from `" + fn.qualified +
                             "` — the view dangles when the owner is "
                             "destroyed at return");
        }
        if (HasStringTemporary(tokens, i + 1, to)) {
          context.Report("L7", tokens[i].line,
                         "returns a view into a std::string temporary from `" +
                             fn.qualified +
                             "` — the temporary dies before the caller can "
                             "look at the view");
        }
        i = to;
      }
    }

    // Member-store escapes: `member_ = <view borrowing a local owner>` or
    // `member_.push_back(<...>)` publishes a borrow beyond the call.
    if (has_owner && !sanctioned) {
      static const std::set<std::string> kAppenders = {
          "push_back", "emplace_back", "insert", "assign", "emplace"};
      for (size_t i = begin; i < end; ++i) {
        const Token& token = tokens[i];
        if (token.kind != TokenKind::kIdentifier || token.text.size() < 2 ||
            token.text.back() != '_') {
          continue;
        }
        // Only bare members (or this->) count: `local.field_ = ...` stores
        // into a local object that dies with the frame.
        if (i > begin && (IsPunct(tokens[i - 1], ".") ||
                          IsPunct(tokens[i - 1], "->"))) {
          const bool via_this = i >= 2 && IsIdent(tokens[i - 2], "this");
          if (!via_this) continue;
        }
        size_t cursor = i + 1;
        if (cursor < end && IsPunct(tokens[cursor], "[")) {
          int depth = 0;
          while (cursor < end) {
            if (IsPunct(tokens[cursor], "[")) ++depth;
            if (IsPunct(tokens[cursor], "]") && --depth == 0) break;
            ++cursor;
          }
          ++cursor;
        }
        size_t rhs_begin = 0;
        size_t rhs_end = 0;
        if (cursor < end && IsPunct(tokens[cursor], "=")) {
          rhs_begin = cursor + 1;
          rhs_end = ExpressionEnd(tokens, rhs_begin, end);
        } else if (cursor + 2 < end && IsPunct(tokens[cursor], ".") &&
                   tokens[cursor + 1].kind == TokenKind::kIdentifier &&
                   kAppenders.count(tokens[cursor + 1].text) > 0 &&
                   IsPunct(tokens[cursor + 2], "(")) {
          rhs_begin = cursor + 3;
          rhs_end = ExpressionEnd(tokens, rhs_begin, end);
        } else {
          continue;
        }
        const Derivation derived =
            DeriveFrom(tokens, rhs_begin, rhs_end, locals, taint);
        if (derived.owner.empty() || !derived.produces_view) continue;
        context.Report(
            "L7", token.line,
            "stores a view borrowing function-local owner `" + derived.owner +
                "` into member `" + token.text + "` in `" + fn.qualified +
                "` — the member outlives the owner; share the arena and "
                "declare `// aggrecol-lint: owns(<member>)` if intended");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L8 — allocation in designated hot-path functions.
//
// The zero-copy and O(1)-screen claims in docs/INGEST.md and
// docs/PERFORMANCE.md hold only if the scanner tiers, the parser inner loop,
// LineIndex screening, number-format matching, and the stage-1 kernels never
// allocate per cell. This registry pins those functions by (file, name); a
// registered name that disappears is itself a violation, so renames cannot
// silently drop coverage.
// ---------------------------------------------------------------------------

struct HotPathEntry {
  std::string_view file;
  std::vector<std::string_view> functions;
};

const std::vector<HotPathEntry>& HotPaths() {
  static const std::vector<HotPathEntry> kHotPaths = {
      {"src/csv/scanner.cc",
       {"ScanScalar", "ScanSwar", "ScanSse2", "ScanAvx2", "ScanStructural"}},
      {"src/csv/parser.cc", {"ParseStructural"}},
      {"src/core/line_index.cc",
       {"Build", "CompensatedSum", "BuildMinMaxTable", "BuildSpanBounds",
        "BuildPrefixBounds"}},
      {"src/core/adjacency_strategy.cc",
       {"SearchDirectionIndexed", "BisectSizes", "BlockCertainMiss",
        "ScreenSizes"}},
      {"src/core/window_strategy.cc", {"TestWindows", "RejectWholeWindow"}},
      {"src/core/extension.cc", {"ExtendRowWithIndex"}},
      {"src/numfmt/number_format.cc",
       {"ParseShape", "ParseNumber", "MatchesFormat"}},
      {"src/numfmt/numeric_grid.cc", {"InterpretCell", "FromGrid"}},
  };
  return kHotPaths;
}

void CheckL8(const FileContext& context, const SymbolIndex& symbols) {
  const HotPathEntry* entry = nullptr;
  for (const HotPathEntry& candidate : HotPaths()) {
    if (candidate.file == context.path) entry = &candidate;
  }
  if (entry == nullptr) return;
  const auto& tokens = context.tokens;

  static const std::set<std::string> kAllocIdents = {
      "to_string", "ostringstream", "stringstream", "strstream"};
  static const std::set<std::string> kAllocHelpers = {
      "Split", "Join", "ToLower", "ReplaceAll", "FormatDouble"};

  for (const std::string_view name : entry->functions) {
    bool found = false;
    for (const FunctionDef& fn : symbols.functions) {
      if (fn.name != name) continue;
      found = true;
      if (fn.body_end <= fn.body_begin || fn.body_end > tokens.size()) {
        continue;
      }
      for (size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
        const Token& token = tokens[i];
        if (token.kind != TokenKind::kIdentifier) continue;
        const bool member_access =
            IsPunct(tokens[i - 1], ".") || IsPunct(tokens[i - 1], "->");
        if (token.text == "new" && !member_access) {
          context.Report("L8", token.line,
                         "heap allocation (`new`) in hot path `" +
                             fn.qualified + "` — this function is on the "
                             "zero-alloc registry (docs/INGEST.md)");
          continue;
        }
        if (IsIdent(token, "string") && i > 0 && IsPunct(tokens[i - 1], "::") &&
            i + 1 < fn.body_end &&
            (tokens[i + 1].kind == TokenKind::kIdentifier ||
             IsPunct(tokens[i + 1], "(") || IsPunct(tokens[i + 1], "{"))) {
          context.Report("L8", token.line,
                         "std::string construction in hot path `" +
                             fn.qualified +
                             "` — keep the per-cell path allocation-free "
                             "(string_view + stack buffers)");
          continue;
        }
        if (kAllocIdents.count(token.text) > 0 && !member_access) {
          context.Report("L8", token.line,
                         "allocating call `" + token.text + "` in hot path `" +
                             fn.qualified + "`");
          continue;
        }
        if (kAllocHelpers.count(token.text) > 0 && i + 1 < fn.body_end &&
            IsPunct(tokens[i + 1], "(")) {
          context.Report("L8", token.line,
                         "allocating helper `util::" + token.text +
                             "` in hot path `" + fn.qualified +
                             "` — these build std::string/vector results per "
                             "call");
        }
      }
    }
    if (!found) {
      context.Report(
          "L8", 1,
          "hot-path registry lists `" + std::string(name) + "` but " +
              std::string(context.path) +
              " no longer defines it — renamed? update the kHotPaths "
              "registry in tools/lint/linter.cc so coverage is not lost");
    }
  }
}

// ---------------------------------------------------------------------------
// L9 — layering: the include graph must keep compute layers below sinks.
// ---------------------------------------------------------------------------

struct LayerRule {
  std::string_view subject_prefix;
  std::vector<std::string> forbidden;
  std::string_view rationale;
};

const std::vector<LayerRule>& LayerRules() {
  static const std::vector<LayerRule> kRules = {
      {"src/core/",
       {"src/cli/", "src/eval/", "src/obs/sinks"},
       "core detects; it must not know about CLI, evaluation, or metric "
       "sinks"},
      {"src/numfmt/",
       {"src/cli/", "src/eval/", "src/obs/sinks"},
       "numfmt normalizes; it must not know about CLI, evaluation, or "
       "metric sinks"},
      {"src/csv/",
       {"src/core/"},
       "the csv layer sits below core — grids flow up, never detection "
       "logic down"},
  };
  return kRules;
}

void CheckL9(const FileContext& context,
             const std::vector<IncludeEdge>& includes) {
  const LayerRule* rule = nullptr;
  for (const LayerRule& candidate : LayerRules()) {
    if (StartsWith(context.path, candidate.subject_prefix)) rule = &candidate;
  }
  if (rule == nullptr) return;

  const auto forbidden = [rule](const std::string& target) {
    for (const std::string& prefix : rule->forbidden) {
      if (StartsWith(target, prefix)) return true;
    }
    return false;
  };

  // Direct edges: line-accurate.
  for (const IncludeEdge& edge : includes) {
    if (!forbidden(edge.target)) continue;
    context.Report("L9", edge.line,
                   "layering violation: " + std::string(context.path) +
                       " includes " + edge.target + " — " +
                       std::string(rule->rationale));
  }

  // Transitive reachability through the whole-project graph. Direct edges
  // were already reported above; a chain of length 2 is a direct edge.
  if (context.options.include_graph == nullptr) return;
  const std::vector<std::string> chain =
      context.options.include_graph->ChainToAny(std::string(context.path),
                                                rule->forbidden);
  if (chain.size() <= 2) return;
  int line = 1;
  for (const IncludeEdge& edge : includes) {
    if (edge.target == chain[1]) line = edge.line;
  }
  std::string rendered;
  for (const std::string& node : chain) {
    if (!rendered.empty()) rendered += " -> ";
    rendered += node;
  }
  context.Report("L9", line,
                 "transitive layering violation: " + rendered + " — " +
                     std::string(rule->rationale));
}

// ---------------------------------------------------------------------------
// Suppression filtering.
// ---------------------------------------------------------------------------

bool KnownRule(const std::string& id) {
  for (const RuleInfo& rule : Rules()) {
    if (rule.id == id) return true;
  }
  return false;
}

// The set of lines a suppression covers: its own line, plus — for a comment
// with no code before it on its line — the line of the next code token.
std::set<int> CoveredLines(const Suppression& suppression,
                           const std::vector<Token>& tokens) {
  std::set<int> lines = {suppression.line};
  if (suppression.own_line) {
    for (const Token& token : tokens) {
      if (token.line > suppression.line) {
        lines.insert(token.line);
        break;
      }
    }
  }
  return lines;
}

// Shared core of LintSource and LintTree: all nine rules plus suppression
// validation over an already-lexed file. LintTree lexes each file once for
// the include graph and reuses that LexResult here.
std::vector<Diagnostic> LintLexed(std::string_view relpath,
                                  const LexResult& lexed,
                                  const Options& options) {
  const SymbolIndex symbols = BuildSymbolIndex(lexed.tokens);
  const std::vector<IncludeEdge> includes = ExtractIncludes(lexed.tokens);
  std::vector<Diagnostic> raw;
  const FileContext context{relpath, lexed.tokens, options, &raw};
  CheckL1(context);
  CheckL2(context);
  CheckL3(context);
  CheckL4(context);
  CheckL5(context);
  CheckL6(context);
  CheckL7(context, lexed, symbols);
  CheckL8(context, symbols);
  CheckL9(context, includes);

  std::vector<Diagnostic> out;
  for (const Suppression& suppression : lexed.suppressions) {
    if (!KnownRule(suppression.rule)) {
      out.push_back(Diagnostic{
          std::string(relpath), suppression.line, "suppression",
          "allow(" + suppression.rule + ") names no compiled rule"});
    } else if (!suppression.has_reason) {
      out.push_back(Diagnostic{
          std::string(relpath), suppression.line, "suppression",
          "allow(" + suppression.rule +
              ") needs a reason: `// aggrecol-lint: allow(" + suppression.rule +
              "): <why this is sound>`"});
    }
  }
  for (Diagnostic& diagnostic : raw) {
    bool suppressed = false;
    for (const Suppression& suppression : lexed.suppressions) {
      if (suppression.rule != diagnostic.rule || !suppression.has_reason) {
        continue;
      }
      if (CoveredLines(suppression, lexed.tokens).count(diagnostic.line) > 0) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(std::move(diagnostic));
  }
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  return out;
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"L1", "locale-parse",
       "no std::stod/stof/atof/strtod outside numfmt::ParseDouble — "
       "locale-dependent parsing misreads Table 4 normalized numbers",
       "everywhere except src/numfmt/parse_double.h"},
      {"L2", "float-compare",
       "no raw ==/!= between floating-point expressions in src/core/ — "
       "route through core::ApproxEq; exact-zero guards are whitelisted",
       "src/core/ except approx.h"},
      {"L3", "nondeterminism",
       "no rand/std::random_device/time()/system_clock in code paths that "
       "feed detection results",
       "src/{core,eval,numfmt,csv,structure,cellclass,baselines}/"},
      {"L4", "raw-thread",
       "no std::thread/std::async bypassing util::ThreadPool in src/ or "
       "bench/",
       "src/ and bench/ except util/thread_pool.*"},
      {"L5", "obs-catalog",
       "obs counter/gauge/span name literals must appear in the "
       "docs/OBSERVABILITY.md catalog",
       "src/"},
      {"L6", "mmap-owner",
       "no mmap/munmap/MapViewOfFile outside src/csv/mapped_file.* — "
       "csv::MappedFile is the single owner of mapping lifetimes",
       "everywhere except src/csv/mapped_file.*"},
      {"L7", "view-escape",
       "no string_view/Grid-cell views stored into members, statics, or "
       "returns that outlive the owning grid/arena; sanctioned sharing "
       "carries an `owns(<member>)` contract",
       "src/{core,eval,numfmt,csv,structure,cellclass,baselines}/"},
      {"L8", "hot-path-alloc",
       "no std::string construction, `new`, or allocating helpers inside "
       "the registered hot-path functions (scanner tiers, parser inner "
       "loop, LineIndex screening, stage-1 kernels)",
       "registered functions in src/csv/, src/core/, src/numfmt/"},
      {"L9", "layering",
       "include-graph layering: core/ and numfmt/ must not reach cli/, "
       "eval/, or obs sinks; csv/ must not reach core/ — directly or "
       "transitively",
       "src/core/, src/numfmt/, src/csv/"},
  };
  return kRules;
}

std::vector<Diagnostic> LintSource(std::string_view relpath,
                                   std::string_view content,
                                   const Options& options) {
  return LintLexed(relpath, Lex(content), options);
}

std::vector<Diagnostic> LintTree(const std::string& root,
                                 std::vector<std::string>* scanned) {
  namespace fs = std::filesystem;
  Options options;
  {
    std::ifstream catalog(fs::path(root) / "docs" / "OBSERVABILITY.md");
    if (catalog.is_open()) {
      std::ostringstream content;
      content << catalog.rdbuf();
      options.obs_catalog = content.str();
    }
  }

  std::vector<Diagnostic> out;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const char* tree : {"src", "tests", "bench", "tools"}) {
    const fs::path base = fs::path(root) / tree;
    if (!fs::exists(base, ec)) {
      out.push_back(Diagnostic{
          tree, 0, "io",
          "input tree " + base.generic_string() +
              " does not exist — wrong --root, or a tree was deleted?"});
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string extension = entry.path().extension().string();
      if (extension != ".cc" && extension != ".h") continue;
      paths.push_back(
          fs::path(entry.path()).lexically_relative(root).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());

  // Phase 1: read and lex every file once, building the project include
  // graph so L9 can chase transitive chains; the LexResults are kept for
  // phase 2 so the tree is tokenized once per run. Unreadable files are
  // diagnostics, not skips: a file the linter cannot see is a file the
  // invariants do not cover.
  std::map<std::string, LexResult> lexed_files;
  IncludeGraph graph;
  for (const std::string& path : paths) {
    std::ifstream file(fs::path(root) / path);
    if (!file.is_open()) {
      out.push_back(Diagnostic{path, 0, "io",
                               "cannot open file for reading — permissions, "
                               "or a dangling symlink?"});
      continue;
    }
    std::ostringstream content;
    content << file.rdbuf();
    if (file.bad()) {
      out.push_back(
          Diagnostic{path, 0, "io", "read failed before end of file"});
      continue;
    }
    LexResult lexed = Lex(content.str());
    graph.AddFile(path, ExtractIncludes(lexed.tokens));
    lexed_files.emplace(path, std::move(lexed));
  }
  options.include_graph = &graph;

  // Phase 2: lint each readable file with the full graph available.
  for (const auto& [path, lexed] : lexed_files) {
    std::vector<Diagnostic> diagnostics = LintLexed(path, lexed, options);
    out.insert(out.end(), std::make_move_iterator(diagnostics.begin()),
               std::make_move_iterator(diagnostics.end()));
    if (scanned != nullptr) scanned->push_back(path);
  }
  return out;
}

}  // namespace aggrecol::lint
