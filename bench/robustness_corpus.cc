// Messy-CSV robustness battery: runs the adversarial corpus
// (datagen::GenerateMessyCorpus) through the full sniff-parse-detect
// pipeline twice — once with the consistency sniffer, once with the retained
// reference sniffer — and reports per-category robustness scores.
//
// Prints a human-readable table; `--json [PATH]` additionally writes the
// machine-readable BENCH_robustness.json consumed by
// bench/check_regression.py (default path: BENCH_robustness.json in the
// current directory). The corpus is fully deterministic, so the scores are
// machine-independent and the CI gate compares them directly.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/messy_generator.h"
#include "eval/robustness.h"
#include "tests/oracle/csv_reference.h"

namespace aggrecol {
namespace {

eval::RobustnessReport Run(const std::vector<eval::RobustnessCase>& cases,
                           csv::SniffResult (*sniff)(std::string_view)) {
  eval::RobustnessOptions options;
  options.sniff = sniff;
  return eval::ScoreRobustness(cases, options);
}

void PrintTable(const eval::RobustnessReport& consistency,
                const eval::RobustnessReport& reference) {
  std::printf("%-24s %7s %8s %7s %7s | %7s\n", "category", "dialect", "parse",
              "F1", "score", "ref");
  for (size_t i = 0; i < consistency.categories.size(); ++i) {
    const auto& entry = consistency.categories[i];
    std::printf("%-24s %7.3f %8.3f %7.3f %7.3f | %7.3f\n",
                entry.category.c_str(), entry.DialectAccuracy(),
                entry.ParseFidelity(), entry.detection.F1(), entry.Score(),
                reference.categories[i].Score());
  }
  std::printf("%-24s %7s %8s %7s %7.3f | %7.3f\n", "aggregate", "", "", "",
              consistency.AggregateScore(), reference.AggregateScore());
}

void WriteJson(const char* path, const datagen::MessyCorpusSpec& spec,
               const eval::RobustnessReport& consistency,
               const eval::RobustnessReport& reference) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"robustness_corpus\",\n");
  std::fprintf(out, "  \"spec\": {\"files_per_category\": %d, \"seed\": %llu},\n",
               spec.files_per_category,
               static_cast<unsigned long long>(spec.seed));
  for (size_t i = 0; i < consistency.categories.size(); ++i) {
    const auto& entry = consistency.categories[i];
    std::fprintf(out,
                 "  \"%s\": {\"files\": %d, \"dialect_accuracy\": %.4f, "
                 "\"parse_fidelity\": %.4f, \"f1\": %.4f, \"score\": %.4f, "
                 "\"reference_score\": %.4f},\n",
                 entry.category.c_str(), entry.files, entry.DialectAccuracy(),
                 entry.ParseFidelity(), entry.detection.F1(), entry.Score(),
                 reference.categories[i].Score());
  }
  std::fprintf(out,
               "  \"aggregate\": {\"score\": %.4f, \"reference_score\": %.4f}\n",
               consistency.AggregateScore(), reference.AggregateScore());
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace aggrecol

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc) ? argv[++i] : "BENCH_robustness.json";
    } else {
      std::fprintf(stderr, "usage: %s [--json [PATH]]\n", argv[0]);
      return 2;
    }
  }

  const aggrecol::datagen::MessyCorpusSpec spec;
  const auto cases = aggrecol::datagen::ToRobustnessCases(
      aggrecol::datagen::GenerateMessyCorpus(spec));
  const auto consistency =
      aggrecol::Run(cases, &aggrecol::csv::SniffDialect);
  const auto reference =
      aggrecol::Run(cases, &aggrecol::csv::SniffDialectReference);

  aggrecol::PrintTable(consistency, reference);
  if (json_path != nullptr) {
    aggrecol::WriteJson(json_path, spec, consistency, reference);
  }
  return 0;
}
