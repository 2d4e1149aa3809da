// Keeps the operator docs honest: docs/CLI.md is checked against the
// compiled CLI surface (commands + accepted options, both directions), and
// docs/OBSERVABILITY.md against the counters an instrumented corpus run
// actually emits. AGGRECOL_SOURCE_DIR is injected by tests/CMakeLists.txt.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "cli/commands.h"
#include "csv/scanner.h"
#include "datagen/corpus.h"
#include "datagen/messy_generator.h"
#include "eval/batch_runner.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tools/lint/linter.h"

namespace aggrecol {
namespace {

std::string ReadDoc(const std::string& relative) {
  const std::string path = std::string(AGGRECOL_SOURCE_DIR) + "/" + relative;
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "missing " << path;
  std::ostringstream content;
  content << file.rdbuf();
  return content.str();
}

// All --option tokens in a document (without the leading dashes).
std::set<std::string> OptionTokens(const std::string& text) {
  std::set<std::string> tokens;
  const std::regex option_re("--([a-z][a-z0-9-]*)");
  for (std::sregex_iterator it(text.begin(), text.end(), option_re), end;
       it != end; ++it) {
    tokens.insert((*it)[1].str());
  }
  return tokens;
}

TEST(CliDocs, EveryCommandIsDocumented) {
  const std::string doc = ReadDoc("docs/CLI.md");
  for (const std::string& command : cli::CommandNames()) {
    EXPECT_NE(doc.find("aggrecol " + command), std::string::npos)
        << "docs/CLI.md does not document `aggrecol " << command << "`";
  }
}

TEST(CliDocs, EveryAcceptedOptionIsDocumented) {
  const std::string doc = ReadDoc("docs/CLI.md");
  const std::set<std::string> documented = OptionTokens(doc);
  for (const std::string& command : cli::CommandNames()) {
    for (const std::string& option : cli::KnownOptionsFor(command)) {
      EXPECT_TRUE(documented.count(option) > 0)
          << "docs/CLI.md does not document --" << option << " (accepted by `"
          << command << "`)";
    }
  }
}

TEST(CliDocs, EveryDocumentedOptionIsAccepted) {
  // The reverse direction: a flag mentioned in the doc but accepted by no
  // command is stale documentation. The doc is split at the `## aggrecol-lint`
  // heading so the lint binary's flags (parsed in tools/lint/main.cc) only
  // validate inside their own section, not under the main binary's commands.
  std::set<std::string> accepted;
  for (const std::string& command : cli::CommandNames()) {
    for (const std::string& option : cli::KnownOptionsFor(command)) {
      accepted.insert(option);
    }
  }
  const std::string doc = ReadDoc("docs/CLI.md");
  size_t lint_section = doc.find("## aggrecol-lint");
  ASSERT_NE(lint_section, std::string::npos)
      << "docs/CLI.md lost its aggrecol-lint section";
  for (const std::string& token : OptionTokens(doc.substr(0, lint_section))) {
    EXPECT_TRUE(accepted.count(token) > 0)
        << "docs/CLI.md mentions --" << token
        << ", which no command accepts";
  }
  const std::set<std::string> lint_accepted = {"root", "format", "list-rules"};
  for (const std::string& token : OptionTokens(doc.substr(lint_section))) {
    EXPECT_TRUE(lint_accepted.count(token) > 0)
        << "docs/CLI.md's aggrecol-lint section mentions --" << token
        << ", which aggrecol-lint does not accept";
  }
}

TEST(CliDocs, UsageTextMatchesCommandTable) {
  const std::string usage = cli::UsageText();
  for (const std::string& command : cli::CommandNames()) {
    EXPECT_NE(usage.find("aggrecol " + command), std::string::npos)
        << "help text does not mention `aggrecol " << command << "`";
  }
  // The help text must not advertise flags the parser rejects.
  std::set<std::string> accepted;
  for (const std::string& command : cli::CommandNames()) {
    for (const std::string& option : cli::KnownOptionsFor(command)) {
      accepted.insert(option);
    }
  }
  for (const std::string& token : OptionTokens(usage)) {
    EXPECT_TRUE(accepted.count(token) > 0)
        << "help text mentions --" << token << ", which no command accepts";
  }
}

TEST(ObservabilityDocs, EveryEmittedCounterIsDocumented) {
  if (!obs::CompiledIn()) GTEST_SKIP() << "built with AGGRECOL_OBS=OFF";
  const std::string doc = ReadDoc("docs/OBSERVABILITY.md");

  // Drive an instrumented corpus run (with a timeout configured so the
  // deadline-slack path fires too) and collect every counter it emits.
  obs::ScopedMetrics scoped;
  eval::BatchOptions options;
  options.threads = 2;
  options.file_timeout_seconds = 600.0;
  eval::BatchRunner(options).Run(datagen::GenerateSmallCorpus(8, 77));
  const obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
  ASSERT_GT(snapshot.counters.size(), 0u);

  // Dynamic name tails (per-function, per-format winners) are documented as
  // `<fn>` / `<format>` placeholders; everything else must appear verbatim.
  auto documented = [&doc](const std::string& name) {
    if (doc.find(name) != std::string::npos) return true;
    const size_t last_dot = name.rfind('.');
    if (last_dot == std::string::npos) return false;
    const std::string stem = name.substr(0, last_dot + 1);
    return doc.find(stem + "<fn>") != std::string::npos ||
           doc.find(stem + "<format>") != std::string::npos;
  };
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_TRUE(documented(name))
        << "docs/OBSERVABILITY.md has no catalog entry for counter " << name;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_TRUE(documented(name))
        << "docs/OBSERVABILITY.md has no catalog entry for gauge " << name;
  }
  for (const auto& histogram : snapshot.histograms) {
    // Spans are documented in the hierarchy diagram by their span.<name>.
    EXPECT_TRUE(documented(histogram.name))
        << "docs/OBSERVABILITY.md has no entry for histogram "
        << histogram.name;
  }
}

TEST(StaticAnalysisDocs, EveryCompiledRuleIsDocumented) {
  const std::string doc = ReadDoc("docs/STATIC_ANALYSIS.md");
  for (const lint::RuleInfo& rule : lint::Rules()) {
    EXPECT_NE(doc.find("`" + rule.id + "`"), std::string::npos)
        << "docs/STATIC_ANALYSIS.md does not document lint rule " << rule.id;
    EXPECT_NE(doc.find(rule.name), std::string::npos)
        << "docs/STATIC_ANALYSIS.md does not mention rule " << rule.id
        << "'s name (" << rule.name << ")";
  }
}

TEST(StaticAnalysisDocs, EveryDocumentedRuleIdIsCompiled) {
  // The reverse direction: an `Ln` rule id in the doc that the registry does
  // not know is stale documentation (or a typo'd id).
  std::set<std::string> compiled;
  for (const lint::RuleInfo& rule : lint::Rules()) {
    compiled.insert(rule.id);
  }
  const std::string doc = ReadDoc("docs/STATIC_ANALYSIS.md");
  const std::regex rule_re("`(L[0-9]+)`");
  for (std::sregex_iterator it(doc.begin(), doc.end(), rule_re), end;
       it != end; ++it) {
    const std::string id = (*it)[1].str();
    EXPECT_TRUE(compiled.count(id) > 0)
        << "docs/STATIC_ANALYSIS.md references rule " << id
        << ", which aggrecol-lint does not implement";
  }
}

TEST(RobustnessDocs, EveryMessyCategoryIsDocumented) {
  const std::string doc = ReadDoc("docs/ROBUSTNESS.md");
  for (datagen::MessyCategory category : datagen::kAllMessyCategories) {
    EXPECT_NE(doc.find("`" + ToString(category) + "`"), std::string::npos)
        << "docs/ROBUSTNESS.md does not document messy category "
        << ToString(category);
  }
}

TEST(RobustnessDocs, EveryDocumentedCategoryIsCompiled) {
  // The reverse direction, scoped to the category table (rows of the form
  // `| `name` | ...`): a listed category the generator does not produce is
  // stale documentation.
  std::set<std::string> compiled;
  for (datagen::MessyCategory category : datagen::kAllMessyCategories) {
    compiled.insert(ToString(category));
  }
  const std::string doc = ReadDoc("docs/ROBUSTNESS.md");
  const std::regex row_re("\\| `([a-z-]+)` \\|");
  for (std::sregex_iterator it(doc.begin(), doc.end(), row_re), end; it != end;
       ++it) {
    const std::string name = (*it)[1].str();
    EXPECT_TRUE(compiled.count(name) > 0)
        << "docs/ROBUSTNESS.md lists category " << name
        << ", which GenerateMessyCorpus does not produce";
  }
}

TEST(IngestDocs, EveryCompiledScanTierIsDocumented) {
  // Forward direction: every tier the scanner enum defines must appear (by
  // its ToString name, backticked) in the INGEST.md tier table.
  const std::string doc = ReadDoc("docs/INGEST.md");
  for (csv::ScanTier tier : csv::kAllScanTiers) {
    const std::string name(csv::ToString(tier));
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/INGEST.md does not document scan tier " << name;
  }
}

TEST(IngestDocs, EveryDocumentedScanTierIsCompiled) {
  // Reverse direction, scoped to the tier table (rows of the form
  // "| `name` | N byte..."): a documented tier the enum does not define is
  // stale documentation.
  std::set<std::string> compiled;
  for (csv::ScanTier tier : csv::kAllScanTiers) {
    compiled.insert(std::string(csv::ToString(tier)));
  }
  const std::string doc = ReadDoc("docs/INGEST.md");
  const std::regex row_re("\\| `([a-z0-9]+)` \\| [0-9]+ byte");
  int rows = 0;
  for (std::sregex_iterator it(doc.begin(), doc.end(), row_re), end; it != end;
       ++it) {
    ++rows;
    const std::string name = (*it)[1].str();
    EXPECT_TRUE(compiled.count(name) > 0)
        << "docs/INGEST.md lists scan tier " << name
        << ", which csv::ScanTier does not define";
  }
  EXPECT_EQ(rows, static_cast<int>(csv::kAllScanTiers.size()))
      << "docs/INGEST.md tier table row count drifted from the enum";
}

TEST(PerformanceDocs, EveryCommittedBenchKeyIsDocumented) {
  // Every key in every committed BENCH_*.json baseline must be explained in
  // PERFORMANCE.md's schema section (category section names live in
  // ROBUSTNESS.md), so a bench schema change without a doc update fails.
  const std::string doc =
      ReadDoc("docs/PERFORMANCE.md") + ReadDoc("docs/ROBUSTNESS.md");
  const std::regex key_re("\"([A-Za-z0-9_<>-]+)\"\\s*:");
  int baselines = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(AGGRECOL_SOURCE_DIR))) {
    const std::string filename = entry.path().filename().string();
    if (filename.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json") {
      continue;
    }
    ++baselines;
    std::ifstream in(entry.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    for (std::sregex_iterator it(json.begin(), json.end(), key_re), end;
         it != end; ++it) {
      const std::string key = (*it)[1].str();
      EXPECT_NE(doc.find(key), std::string::npos)
          << filename << " key `" << key
          << "` is not documented in docs/PERFORMANCE.md (or, for category "
             "names, docs/ROBUSTNESS.md)";
    }
  }
  EXPECT_EQ(baselines, 3) << "committed BENCH_*.json baseline count changed; "
                             "update docs/PERFORMANCE.md's baseline table";
}

TEST(PerformanceDocs, ScreeningMatrixNamesEveryStage1Section) {
  // The screening coverage matrix maps each (stage x function) combination
  // to the benchmark that guards it, so every comparison section of the
  // stage-1 bench must be referenced inside the matrix section — a new bench
  // section without a matrix entry (or a renamed section leaving a stale
  // entry) fails here.
  const std::string doc = ReadDoc("docs/PERFORMANCE.md");
  const size_t matrix = doc.find("## Screening coverage matrix");
  ASSERT_NE(matrix, std::string::npos)
      << "docs/PERFORMANCE.md lost its screening coverage matrix";
  const std::string section =
      doc.substr(matrix, doc.find("\n## ", matrix + 1) - matrix);
  for (const char* name :
       {"wide_adjacency", "column_axis", "window_ratio_columns",
        "stage2_collective", "extension_screen"}) {
    EXPECT_NE(section.find(name), std::string::npos)
        << "the screening coverage matrix does not reference bench section "
        << name;
  }
}

TEST(PerformanceDocs, CandidatePathQuotesTheAllocationBudget) {
  // The "Candidate path" section quotes the copying pipeline's allocation
  // count that tests/alloc_budget_test.cc budgets against; a re-measured
  // budget without a doc update fails here.
  const std::string doc = ReadDoc("docs/PERFORMANCE.md");
  const size_t at = doc.find("## Candidate path");
  ASSERT_NE(at, std::string::npos)
      << "docs/PERFORMANCE.md lost its candidate path section";
  const std::string section = doc.substr(at, doc.find("\n## ", at + 1) - at);
  const std::string test = ReadDoc("tests/alloc_budget_test.cc");
  std::smatch budget;
  ASSERT_TRUE(std::regex_search(test, budget,
                                std::regex("kCopyingPipeline = ([0-9']+);")))
      << "tests/alloc_budget_test.cc lost kCopyingPipeline";
  std::string quoted = budget[1].str();
  std::replace(quoted.begin(), quoted.end(), '\'', ',');
  EXPECT_NE(section.find(quoted), std::string::npos)
      << "the candidate path section does not quote the budget " << quoted;
}

TEST(Docs, CrossReferencedPagesExist) {
  // The pages the README and ALGORITHM link to must exist; their content is
  // checked above and by the CI link checker.
  for (const char* page :
       {"docs/ARCHITECTURE.md", "docs/CLI.md", "docs/OBSERVABILITY.md",
        "docs/ALGORITHM.md", "docs/STATIC_ANALYSIS.md", "docs/PERFORMANCE.md",
        "docs/ROBUSTNESS.md", "docs/INGEST.md", "README.md"}) {
    EXPECT_FALSE(ReadDoc(page).empty()) << page;
  }
}

}  // namespace
}  // namespace aggrecol
