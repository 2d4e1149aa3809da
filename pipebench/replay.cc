#include "replay.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstdint>
#include <set>

#include "core/aggrecol.h"
#include "core/collective_detector.h"
#include "core/individual_detector.h"
#include "core/supplemental_detector.h"
#include "csv/mapped_file.h"
#include "csv/parser.h"
#include "csv/sniffer.h"
#include "eval/annotations.h"
#include "eval/metrics.h"
#include "numfmt/axis_view.h"
#include "numfmt/number_format.h"
#include "numfmt/numeric_grid.h"
#include "util/file_io.h"

namespace pipebench {
namespace {

using aggrecol::core::Aggregation;
using aggrecol::core::AggregationFunction;
using aggrecol::core::Axis;

// Indices into LayerNames().
enum Layer : size_t {
  kMap,
  kSniff,
  kParse,
  kElectLoad,
  kSidecar,
  kElectDetect,
  kNormalize,
  kStage1First,  // 5 row-axis functions, then 5 column-axis functions
  kMerge = kStage1First + 2 * aggrecol::core::kAllFunctions.size(),
  kStage2,
  kStage3Rows,
  kStage3Columns,
  kScore,
  kLayerCount,
};

std::string MetricNameOf(AggregationFunction function) {
  std::string name = aggrecol::core::ToString(function);
  std::replace(name.begin(), name.end(), ' ', '_');
  return name;
}

// Attributes the time since the previous lap to a layer. Laps are taken back
// to back, so no time between two layers goes unattributed.
class LapClock {
 public:
  explicit LapClock(std::vector<double>* seconds)
      : seconds_(seconds), last_(std::chrono::steady_clock::now()) {}

  void Lap(size_t layer) {
    const auto now = std::chrono::steady_clock::now();
    (*seconds_)[layer] += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

 private:
  std::vector<double>* seconds_;
  std::chrono::steady_clock::time_point last_;
};

// AggreCol::Detect's merge helpers (core/aggrecol.cc keeps them private).
std::vector<Aggregation> TagAxis(std::vector<Aggregation> aggregations, Axis axis) {
  for (auto& aggregation : aggregations) aggregation.axis = axis;
  return aggregations;
}

void AppendUnique(std::vector<Aggregation>* out, const std::vector<Aggregation>& in) {
  std::set<Aggregation, bool (*)(const Aggregation&, const Aggregation&)> seen(
      &aggrecol::core::AggregationLess);
  for (const auto& aggregation : *out) seen.insert(aggregation);
  for (const auto& aggregation : in) {
    if (seen.insert(aggregation).second) out->push_back(aggregation);
  }
}

}  // namespace

const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out = {"csv.map",           "csv.sniff",
                                    "csv.parse",         "numfmt.elect.load",
                                    "eval.load",         "numfmt.elect.detect",
                                    "numfmt.normalize"};
    for (const char* axis : {"rows", "columns"}) {
      for (AggregationFunction function : aggrecol::core::kAllFunctions) {
        out.push_back(std::string("stage1.") + axis + "." + MetricNameOf(function));
      }
    }
    for (const char* name : {"core.merge", "stage2", "stage3.rows",
                             "stage3.columns", "eval.score"}) {
      out.push_back(name);
    }
    if (out.size() != kLayerCount) std::abort();  // names and enum disagree
    return out;
  }();
  return names;
}

ReplayResult ReplayFile(const std::string& csv_path,
                        const std::string& annotations_path) {
  namespace core = aggrecol::core;
  namespace csv = aggrecol::csv;
  namespace eval = aggrecol::eval;
  namespace numfmt = aggrecol::numfmt;
  ReplayResult out;
  out.layer_seconds.assign(kLayerCount, 0.0);
  LapClock clock(&out.layer_seconds);

  // eval::LoadAnnotatedFile.
  auto mapped = csv::MappedFile::Open(csv_path);
  clock.Lap(kMap);
  if (!mapped.has_value()) return out;
  const csv::SniffResult sniffed = csv::SniffDialect(mapped->view());
  clock.Lap(kSniff);
  const csv::Grid grid = csv::ParseGrid(std::move(*mapped), sniffed.dialect,
                                        csv::ParseHints{sniffed.modal_row_width});
  clock.Lap(kParse);
  numfmt::ElectFormat(grid);  // LoadAnnotatedFile elects too; Detect re-elects
  clock.Lap(kElectLoad);
  std::vector<core::Aggregation> annotations;
  if (const auto sidecar = aggrecol::util::ReadFile(annotations_path)) {
    auto parsed = eval::ParseAnnotations(*sidecar);
    const auto composites = eval::ParseComposites(*sidecar);
    if (!parsed.has_value() || !composites.has_value()) return out;
    annotations = std::move(*parsed);
  }
  clock.Lap(kSidecar);

  // core::AggreCol::Detect(const csv::Grid&), default configuration.
  const core::AggreColConfig config;
  const numfmt::NumberFormat format = numfmt::ElectFormat(grid);
  clock.Lap(kElectDetect);
  const numfmt::NumericGrid numeric =
      numfmt::NumericGrid::FromGrid(grid, format, config.normalize);
  clock.Lap(kNormalize);

  const std::vector<std::pair<Axis, numfmt::AxisView>> views = {
      {Axis::kRow, numfmt::AxisView::Rows(numeric)},
      {Axis::kColumn, numfmt::AxisView::Columns(numeric)}};

  // Stage 1, one (axis, function) job at a time in Detect's job order.
  std::vector<std::vector<std::vector<Aggregation>>> job_results(views.size());
  for (size_t v = 0; v < views.size(); ++v) {
    for (AggregationFunction function : config.functions) {
      core::IndividualConfig individual;
      individual.error_level = config.error_level(function);
      individual.coverage = config.coverage;
      individual.window_size = config.window_size;
      individual.rules = config.pruning_rules;
      job_results[v].push_back(
          core::DetectIndividualRowwise(views[v].second, function, individual));
      clock.Lap(kStage1First + v * core::kAllFunctions.size() +
                core::IndexOf(function));
    }
  }
  std::vector<std::vector<Aggregation>> per_axis(views.size());
  std::vector<Aggregation> individual_stage;
  for (size_t v = 0; v < views.size(); ++v) {
    for (const auto& result : job_results[v]) AppendUnique(&per_axis[v], result);
  }
  for (size_t v = 0; v < views.size(); ++v) {
    AppendUnique(&individual_stage, TagAxis(per_axis[v], views[v].first));
  }
  clock.Lap(kMerge);

  // Stage 2.
  std::vector<std::vector<Aggregation>> collective(views.size());
  for (size_t v = 0; v < views.size(); ++v) {
    collective[v] = core::CollectivePrune(views[v].second, per_axis[v]);
  }
  clock.Lap(kStage2);
  std::vector<Aggregation> collective_stage;
  for (size_t v = 0; v < views.size(); ++v) {
    AppendUnique(&collective_stage, TagAxis(collective[v], views[v].first));
  }
  std::vector<Aggregation> aggregations = collective_stage;
  clock.Lap(kMerge);

  // Stage 3.
  core::SupplementalConfig supplemental;
  supplemental.functions = config.functions;
  supplemental.error_levels = config.error_levels;
  supplemental.coverage = config.coverage;
  supplemental.window_size = config.window_size;
  supplemental.rules = config.pruning_rules;
  supplemental.max_configurations = config.max_configurations;
  std::vector<std::vector<Aggregation>> extras(views.size());
  for (size_t v = 0; v < views.size(); ++v) {
    extras[v] = core::DetectSupplementalRowwise(views[v].second, supplemental,
                                                collective[v]);
    clock.Lap(v == 0 ? kStage3Rows : kStage3Columns);
  }
  for (size_t v = 0; v < views.size(); ++v) {
    AppendUnique(&aggregations, TagAxis(extras[v], views[v].first));
  }
  for (size_t v = 0; v < views.size(); ++v) AppendUnique(&collective[v], extras[v]);
  clock.Lap(kMerge);

  // eval::BatchRunner scores every completed file.
  eval::Score(aggregations, annotations);
  clock.Lap(kScore);

  out.aggregations = std::move(aggregations);
  out.loaded = true;
  return out;
}

bool BitIdentical(const std::vector<Aggregation>& a, const std::vector<Aggregation>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Aggregation& x, const Aggregation& y) {
                      return x == y && std::bit_cast<uint64_t>(x.error) ==
                                           std::bit_cast<uint64_t>(y.error);
                    });
}

}  // namespace pipebench
