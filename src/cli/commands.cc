#include "cli/commands.h"

#include <fstream>
#include <set>
#include <thread>

#include "eval/batch_runner.h"

#include "core/formula_export.h"
#include "csv/parser.h"
#include "csv/sniffer.h"
#include "csv/writer.h"
#include "datagen/corpus.h"
#include "datagen/messy_generator.h"
#include "eval/annotations.h"
#include "eval/dataset_io.h"
#include "eval/file_level.h"
#include "eval/metrics.h"
#include "eval/obs_summary.h"
#include "numfmt/numeric_grid.h"
#include "numfmt/parse_double.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "util/file_io.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace aggrecol::cli {
namespace {

constexpr const char* kUsage = R"(aggrecol — aggregation detection in CSV files (AggreCol, EDBT 2022)

usage:
  aggrecol detect <file.csv> [options]      detect and print aggregations
  aggrecol evaluate <file.csv> <truth>      score detections vs an annotation file
  aggrecol sniff <file.csv>                 report dialect and number format
  aggrecol generate [options]               write a synthetic annotated corpus
  aggrecol batch <dir> [options]            stream a corpus through the thread pool
  aggrecol help                             show this message

detection options (detect, evaluate):
  --error-level=E | --error-level=sum:0.01,division:0.03,...
  --coverage=C          line aggregation coverage threshold (default 0.7)
  --window=W            sliding window size (default 10)
  --functions=LIST      sum,difference,average,division,relative-change
  --stages=i|ic|ics     run only stage I, I+C, or all (default ics)
  --axis=rows|columns|both
  --split-tables        detect per blank-row-separated region
  --no-empty-as-zero    do not interpret empty cells as zero
  --output=text|annotations|grid|formulas   (detect only; default text)

generate options:
  --out=DIR             output directory (required)
  --count=N             number of files (default 10)
  --seed=S              corpus seed (default 42)
  --profile=validation|unseen
  --messy               write the adversarial messy corpus instead (raw bytes
                        with dialect/encoding quirks; --count/--profile ignored)
  --per-category=N      messy files per category (default 8; with --messy)

batch options (plus all detection options):
  --threads=N           pool worker threads (default: hardware concurrency)
  --in-flight=K         max files detected concurrently (default 4)
  --timeout=SECONDS     per-file deadline; expired files report timed_out
  --quiet               summary only, no per-file table
  --metrics-json=PATH   write pipeline metrics as JSON (PATH '-' = stdout)
  --trace               print the per-corpus observability summary
)";

const std::vector<std::string> kDetectionOptions = {
    "error-level", "coverage",         "window", "functions", "stages",
    "axis",        "no-empty-as-zero", "output", "split-tables"};

const std::vector<std::string> kGenerateOptions = {
    "out", "count", "seed", "profile", "messy", "per-category"};

std::vector<std::string> BatchOptionNames() {
  std::vector<std::string> known = kDetectionOptions;
  known.insert(known.end(), {"threads", "in-flight", "timeout", "quiet",
                             "metrics-json", "trace"});
  return known;
}

bool RejectUnknown(const ArgParser& args, const std::vector<std::string>& known,
                   std::ostream& err) {
  const auto unknown = args.UnknownOptions(known);
  if (unknown.empty()) return true;
  for (const auto& name : unknown) err << "unknown option: --" << name << "\n";
  return false;
}

// Loads and parses a CSV file with a sniffed dialect. The mapping moves
// into the grid's arena, so the cells are zero-copy slices of the file.
std::optional<csv::Grid> LoadGrid(const std::string& path, std::ostream& err) {
  auto file = csv::MappedFile::Open(path);
  if (!file.has_value()) {
    err << "cannot read '" << path << "'\n";
    return std::nullopt;
  }
  const auto sniffed = csv::SniffDialect(file->view());
  return csv::ParseGrid(std::move(*file), sniffed.dialect,
                        csv::ParseHints{sniffed.modal_row_width});
}

}  // namespace

const std::vector<std::string>& CommandNames() {
  static const std::vector<std::string> names = {
      "detect", "evaluate", "sniff", "generate", "batch", "help"};
  return names;
}

std::vector<std::string> KnownOptionsFor(const std::string& command) {
  if (command == "detect" || command == "evaluate") {
    return kDetectionOptions;
  }
  if (command == "generate") return kGenerateOptions;
  if (command == "batch") return BatchOptionNames();
  return {};  // sniff, help
}

const char* UsageText() { return kUsage; }

bool ConfigFromArgs(const ArgParser& args, core::AggreColConfig* config,
                    std::ostream& err) {
  if (const auto spec = args.GetString("error-level"); spec.has_value()) {
    if (spec->find(':') == std::string::npos) {
      const auto level = numfmt::ParseDouble(*spec);
      if (!level.has_value() || *level < 0) {
        err << "invalid --error-level '" << *spec << "'\n";
        return false;
      }
      config->error_levels.fill(*level);
    } else {
      for (const auto& entry : util::Split(*spec, ',')) {
        const auto parts = util::Split(entry, ':');
        if (parts.size() != 2) {
          err << "invalid --error-level entry '" << entry << "'\n";
          return false;
        }
        const auto function = core::FunctionFromName(parts[0]);
        if (!function.has_value()) {
          err << "unknown function '" << parts[0] << "'\n";
          return false;
        }
        const auto level = numfmt::ParseDouble(parts[1]);
        if (!level.has_value() || *level < 0) {
          err << "invalid --error-level entry '" << entry << "'\n";
          return false;
        }
        config->error_level(*function) = *level;
      }
    }
  }
  config->coverage = args.GetDouble("coverage", config->coverage);
  config->window_size = args.GetInt("window", config->window_size);

  if (args.Has("functions")) {
    config->functions.clear();
    for (const auto& name : args.GetList("functions")) {
      const auto function = core::FunctionFromName(name);
      if (!function.has_value()) {
        err << "unknown function '" << name << "'\n";
        return false;
      }
      config->functions.push_back(*function);
    }
    if (config->functions.empty()) {
      err << "--functions lists no functions\n";
      return false;
    }
  }

  if (const auto stages = args.GetString("stages"); stages.has_value()) {
    if (*stages == "i") {
      config->run_collective = false;
      config->run_supplemental = false;
    } else if (*stages == "ic") {
      config->run_supplemental = false;
    } else if (*stages != "ics") {
      err << "invalid --stages '" << *stages << "' (use i, ic, or ics)\n";
      return false;
    }
  }

  if (const auto axis = args.GetString("axis"); axis.has_value()) {
    if (*axis == "rows") {
      config->detect_columns = false;
    } else if (*axis == "columns") {
      config->detect_rows = false;
    } else if (*axis != "both") {
      err << "invalid --axis '" << *axis << "' (use rows, columns, or both)\n";
      return false;
    }
  }

  if (args.Has("no-empty-as-zero")) config->normalize.treat_empty_as_zero = false;
  if (args.Has("split-tables")) config->split_tables = true;
  return true;
}

int RunDetect(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 2) {
    err << "usage: aggrecol detect <file.csv> [options]\n";
    return 2;
  }
  if (!RejectUnknown(args, kDetectionOptions, err)) return 2;
  core::AggreColConfig config;
  if (!ConfigFromArgs(args, &config, err)) return 2;

  const auto grid = LoadGrid(args.positionals()[1], err);
  if (!grid.has_value()) return 1;

  const auto result = core::AggreCol(config).Detect(*grid);
  const std::string output = args.GetString("output").value_or("text");
  if (output == "annotations") {
    out << eval::SerializeAnnotations(result.aggregations);
  } else if (output == "grid") {
    // Render the table with every detected aggregate cell bracketed.
    std::set<std::pair<int, int>> aggregate_cells;
    for (const auto& aggregation : result.aggregations) {
      const int row = aggregation.axis == core::Axis::kRow ? aggregation.line
                                                           : aggregation.aggregate;
      const int col = aggregation.axis == core::Axis::kRow ? aggregation.aggregate
                                                           : aggregation.line;
      aggregate_cells.insert({row, col});
    }
    util::TablePrinter printer;
    for (int i = 0; i < grid->rows(); ++i) {
      std::vector<std::string> row;
      row.reserve(grid->columns());
      for (int j = 0; j < grid->columns(); ++j) {
        row.push_back(aggregate_cells.count({i, j}) > 0
                          ? "[" + std::string(grid->at(i, j)) + "]"
                          : std::string(grid->at(i, j)));
      }
      printer.AddRow(std::move(row));
    }
    printer.Print(out);
    out << result.aggregations.size() << " aggregation(s); [cell] = aggregate\n";
  } else if (output == "formulas") {
    // Reconstructed spreadsheet formulas — input for formula-smell tools.
    for (const auto& formula :
         core::ExportFormulas(core::CanonicalizeAll(result.aggregations))) {
      out << core::CellName(formula.row, formula.column) << ": " << formula.formula
          << "\n";
    }
  } else if (output == "text") {
    out << "file: " << args.positionals()[1] << "\n";
    out << "number format: " << numfmt::ToString(result.format) << "\n";
    out << "aggregations: " << result.aggregations.size() << "\n";
    for (const auto& aggregation : result.aggregations) {
      out << "  " << ToString(aggregation) << "\n";
    }
  } else {
    err << "invalid --output '" << output
        << "' (use text, annotations, grid, or formulas)\n";
    return 2;
  }
  return 0;
}

int RunEvaluate(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 3) {
    err << "usage: aggrecol evaluate <file.csv> <truth.annotations> [options]\n";
    return 2;
  }
  if (!RejectUnknown(args, kDetectionOptions, err)) return 2;
  core::AggreColConfig config;
  if (!ConfigFromArgs(args, &config, err)) return 2;

  const auto grid = LoadGrid(args.positionals()[1], err);
  if (!grid.has_value()) return 1;
  const auto truth_text = util::ReadFile(args.positionals()[2]);
  if (!truth_text.has_value()) {
    err << "cannot read '" << args.positionals()[2] << "'\n";
    return 1;
  }
  const auto truth = eval::ParseAnnotations(*truth_text);
  if (!truth.has_value()) {
    err << "malformed annotation file '" << args.positionals()[2] << "'\n";
    return 1;
  }

  const auto result = core::AggreCol(config).Detect(*grid);
  util::TablePrinter printer;
  printer.SetHeader({"function", "precision", "recall", "F1", "correct", "wrong",
                     "missed"});
  auto add_row = [&printer, &result, &truth](const std::string& label,
                                             eval::FunctionFilter filter) {
    const auto scores = eval::Score(result.aggregations, *truth, filter);
    if (filter.has_value() && scores.correct + scores.missed == 0 &&
        scores.incorrect == 0) {
      return;  // function absent from both sides
    }
    printer.AddRow({label, util::FormatDouble(scores.precision, 3),
                    util::FormatDouble(scores.recall, 3),
                    util::FormatDouble(scores.F1(), 3),
                    std::to_string(scores.correct), std::to_string(scores.incorrect),
                    std::to_string(scores.missed)});
  };
  add_row("sum (incl. difference)", core::AggregationFunction::kSum);
  add_row("average", core::AggregationFunction::kAverage);
  add_row("division", core::AggregationFunction::kDivision);
  add_row("relative change", core::AggregationFunction::kRelativeChange);
  add_row("overall", std::nullopt);
  printer.Print(out);
  return 0;
}

int RunSniff(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 2) {
    err << "usage: aggrecol sniff <file.csv>\n";
    return 2;
  }
  auto file = csv::MappedFile::Open(args.positionals()[1]);
  if (!file.has_value()) {
    err << "cannot read '" << args.positionals()[1] << "'\n";
    return 1;
  }
  const auto sniffed = csv::SniffDialect(file->view());
  const auto grid = csv::ParseGrid(std::move(*file), sniffed.dialect,
                                   csv::ParseHints{sniffed.modal_row_width});
  const auto format = numfmt::ElectFormat(grid);
  const auto numeric = numfmt::NumericGrid::FromGrid(grid, format);
  int numeric_cells = 0;
  for (int i = 0; i < numeric.rows(); ++i) numeric_cells += numeric.NumericCountInRow(i);

  out << "dialect:       " << ToString(sniffed.dialect) << "\n";
  out << "number format: " << numfmt::ToString(format) << "\n";
  out << "shape:         " << grid.rows() << " rows x " << grid.columns()
      << " columns\n";
  out << "numeric cells: " << numeric_cells << " of " << grid.CountNonEmpty()
      << " non-empty\n";
  return 0;
}

int RunGenerate(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (!RejectUnknown(args, kGenerateOptions, err)) return 2;
  const auto out_dir = args.GetString("out");
  if (!out_dir.has_value()) {
    err << "usage: aggrecol generate --out=DIR [--count=N] [--seed=S] "
           "[--profile=validation|unseen] [--messy [--per-category=N]]\n";
    return 2;
  }
  if (args.Has("messy")) {
    // The adversarial corpus is written as raw bytes: the files carry their
    // dialect and encoding quirks on disk, so `aggrecol batch` exercises
    // the same sniff-parse-detect path the robustness battery scores.
    datagen::MessyCorpusSpec spec;
    spec.seed = static_cast<uint64_t>(args.GetInt("seed", 6021));
    spec.files_per_category =
        args.GetInt("per-category", spec.files_per_category);
    const auto files = datagen::GenerateMessyCorpus(spec);
    for (const auto& file : files) {
      std::string stem = file.annotated.name;
      if (stem.size() > 4 && stem.substr(stem.size() - 4) == ".csv") {
        stem.resize(stem.size() - 4);
      }
      if (!util::WriteFile(*out_dir + "/" + stem + ".csv", file.text) ||
          !util::WriteFile(
              *out_dir + "/" + stem + ".annotations",
              eval::SerializeAnnotations(file.annotated.annotations))) {
        err << "cannot write into '" << *out_dir << "'\n";
        return 1;
      }
    }
    out << "wrote " << files.size() << " messy file pairs (.csv + .annotations) to "
        << *out_dir << "\n";
    return 0;
  }
  datagen::CorpusSpec spec = datagen::ValidationCorpus();
  if (args.GetString("profile").value_or("validation") == "unseen") {
    spec = datagen::UnseenCorpus();
  }
  spec.name = "generated";
  spec.file_count = args.GetInt("count", 10);
  spec.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  const auto files = datagen::GenerateCorpus(spec);
  for (size_t i = 0; i < files.size(); ++i) {
    if (!eval::SaveAnnotatedFile(*out_dir, "file_" + std::to_string(i), files[i])) {
      err << "cannot write into '" << *out_dir << "'\n";
      return 1;
    }
  }
  out << "wrote " << files.size() << " file pairs (.csv + .annotations) to "
      << *out_dir << "\n";
  return 0;
}

int RunBatch(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 2) {
    err << "usage: aggrecol batch <corpus-dir> [options]\n";
    return 2;
  }
  if (!RejectUnknown(args, BatchOptionNames(), err)) return 2;

  eval::BatchOptions options;
  if (!ConfigFromArgs(args, &options.config, err)) return 2;
  const int default_threads =
      std::max(1u, std::thread::hardware_concurrency());
  options.threads = args.GetInt("threads", default_threads);
  options.max_in_flight = args.GetInt("in-flight", options.max_in_flight);
  options.file_timeout_seconds = args.GetDouble("timeout", 0.0);
  if (options.threads < 1 || options.max_in_flight < 1 ||
      options.file_timeout_seconds < 0) {
    err << "invalid --threads/--in-flight/--timeout value\n";
    return 2;
  }

  // Observability: enabled before the corpus loads so the csv.* counters
  // cover the corpus parse as well as the detection runs. ScopedMetrics
  // resets the registry, making the snapshot below cover exactly this batch.
  const std::optional<std::string> metrics_json = args.GetString("metrics-json");
  const bool trace = args.Has("trace");
  const bool want_metrics = metrics_json.has_value() || trace;
  if (want_metrics && !obs::CompiledIn()) {
    err << "warning: built with AGGRECOL_OBS=OFF; metrics will be empty\n";
  }
  std::optional<obs::ScopedMetrics> scoped_metrics;
  if (want_metrics) scoped_metrics.emplace();

  const auto files = eval::LoadCorpusDirectory(args.positionals()[1]);
  if (!files.has_value()) {
    err << "cannot load corpus from '" << args.positionals()[1] << "'\n";
    return 1;
  }
  if (files->empty()) {
    err << "no .csv files in '" << args.positionals()[1] << "'\n";
    return 1;
  }

  eval::BatchRunner runner(options);
  const auto report = runner.Run(*files);

  if (!args.Has("quiet")) {
    util::TablePrinter per_file;
    per_file.SetHeader({"file", "outcome", "aggregations", "seconds"});
    for (const auto& file : report.files) {
      per_file.AddRow({file.name, eval::ToString(file.outcome),
                       file.outcome == eval::FileOutcome::kOk
                           ? std::to_string(file.result.aggregations.size())
                           : "-",
                       util::FormatDouble(file.seconds, 3)});
    }
    per_file.Print(out);
    out << "\n";
  }

  out << "corpus: " << args.positionals()[1] << " (" << files->size()
      << " files; " << options.threads << " threads, window "
      << options.max_in_flight << ")\n";
  util::TablePrinter summary;
  summary.SetHeader({"metric", "value"});
  summary.AddRow({"ok", std::to_string(report.ok)});
  summary.AddRow({"timed_out", std::to_string(report.timed_out)});
  summary.AddRow({"failed", std::to_string(report.failed)});
  // Decided files only: timed_out is a scheduling outcome, so it must not
  // drag the rate down (see eval::SuccessRate).
  summary.AddRow({"success rate", util::FormatDouble(eval::SuccessRate(report), 3)});
  summary.AddRow({"aggregations", std::to_string(report.total_aggregations)});
  summary.AddRow({"wall seconds", util::FormatDouble(report.seconds_wall, 3)});
  summary.AddRow(
      {"stage seconds (individual)", util::FormatDouble(report.seconds_individual, 3)});
  summary.AddRow(
      {"stage seconds (collective)", util::FormatDouble(report.seconds_collective, 3)});
  summary.AddRow({"stage seconds (supplemental)",
                  util::FormatDouble(report.seconds_supplemental, 3)});
  summary.AddRow({"precision", util::FormatDouble(report.scores.precision, 3)});
  summary.AddRow({"recall", util::FormatDouble(report.scores.recall, 3)});
  summary.AddRow({"F1", util::FormatDouble(report.scores.F1(), 3)});
  std::vector<eval::Scores> per_file_scores;
  for (const auto& file : report.files) {
    if (file.outcome == eval::FileOutcome::kOk) {
      per_file_scores.push_back(file.scores);
    }
  }
  const eval::FileLevelResult file_level =
      eval::BuildFileLevel(per_file_scores);
  // Bin 4 is (0.95, 1], the top bin of the file-level figures (Figs. 9-11).
  const auto top_bin_share = [](const eval::FileLevelHistogram& histogram) {
    return util::FormatDouble(100.0 * histogram.Fraction(4), 1) + "%";
  };
  summary.AddRow({"files with precision > 0.95",
                  top_bin_share(file_level.precision)});
  summary.AddRow({"files with recall > 0.95", top_bin_share(file_level.recall)});
  summary.Print(out);

  if (want_metrics) {
    const obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
    if (trace) {
      out << "\n";
      eval::PrintObservabilitySummary(snapshot, out);
    }
    if (metrics_json.has_value()) {
      if (*metrics_json == "-") {
        obs::WriteMetricsJson(snapshot, out);
      } else {
        std::ofstream file(*metrics_json);
        if (!file) {
          err << "cannot write '" << *metrics_json << "'\n";
          return 1;
        }
        obs::WriteMetricsJson(snapshot, file);
      }
    }
  }
  return report.failed == 0 ? 0 : 1;
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  const ArgParser parsed = ArgParser::Parse(args);
  if (parsed.positionals().empty()) {
    out << kUsage;
    return 2;
  }
  const std::string& command = parsed.positionals()[0];
  if (command == "detect") return RunDetect(parsed, out, err);
  if (command == "evaluate") return RunEvaluate(parsed, out, err);
  if (command == "sniff") return RunSniff(parsed, out, err);
  if (command == "generate") return RunGenerate(parsed, out, err);
  if (command == "batch") return RunBatch(parsed, out, err);
  if (command == "help") {
    out << kUsage;
    return 0;
  }
  err << "unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace aggrecol::cli
