#include "core/extension.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "core/line_index.h"
#include "core/pair_screen.h"
#include "core/pruning.h"
#include "obs/metrics.h"

namespace aggrecol::core {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kInflate = 1.0 + 32.0 * kEps;

// One pattern to validate on every row, with everything that is
// row-invariant hoisted out of the row loop.
struct PatternPlan {
  // The pattern's exemplar; only its pattern fields (axis, aggregate,
  // range, function) are read.
  const Aggregation* pattern = nullptr;
  bool pairwise = false;
  // Ascending range (always true for adjacency-produced commutative
  // patterns); only then can compact-space contiguity make the range a
  // prefix span.
  bool ascending = false;
  PatternRows* out = nullptr;  // the rows it validates on, ascending

  void Accept(int row, double error) const {
    out->rows.push_back(row);
    out->errors.push_back(error);
  }
};

// The reference per-(pattern, row) check of the naive walk, on the raw view:
// the error level when `row` validates `pattern`, nullopt otherwise.
// `values` is scratch for the range values.
std::optional<double> ValidateRow(const numfmt::AxisView& grid,
                                  const std::vector<bool>& active_columns,
                                  const Aggregation& pattern, int row,
                                  double error_level,
                                  std::vector<double>& values) {
  if (!grid.IsNumeric(row, pattern.aggregate)) return std::nullopt;
  values.clear();
  values.reserve(pattern.range.size());
  for (int col : pattern.range) {
    if (!active_columns[col] || !grid.IsRangeUsable(row, col)) {
      return std::nullopt;
    }
    values.push_back(grid.value(row, col));
  }
  const auto calculated = Apply(pattern.function, values);
  if (!calculated.has_value()) return std::nullopt;
  const double error = ErrorLevel(grid.value(row, pattern.aggregate), *calculated);
  if (!WithinErrorLevel(error, error_level)) return std::nullopt;
  return error;
}

// The aggregation `pattern` validated on `row` with `error`.
Aggregation Validated(const Aggregation& pattern, int row, double error) {
  Aggregation aggregation;
  aggregation.axis = pattern.axis;
  aggregation.line = row;
  aggregation.aggregate = pattern.aggregate;
  aggregation.range = pattern.range;
  aggregation.function = pattern.function;
  aggregation.error = error;
  return aggregation;
}

// Screens pattern `plan` against `row` of the compacted `index` and, when the
// exact replay confirms, records the row with its error level. The screens
// are the same certain-miss bounds as the stage-1 kernels: commutative
// ranges that are contiguous in compact space use the O(1) prefix-sum test
// (adjacency_strategy.cc); pairwise ranges use the window kernel's
// division-free pair screens (pair_screen.h). Every possible accept replays
// the reference Apply()+ErrorLevel() arithmetic over the same values in the
// same order, so the recorded error is bit-identical to the naive walk's.
void ExtendRowWithIndex(const numfmt::AxisView& grid, const LineIndex& index,
                        int row, double error_level, const PatternPlan& plan) {
  const Aggregation& pattern = *plan.pattern;
  const double observed = grid.value(row, pattern.aggregate);
  const double threshold = (error_level + kErrorSlack) *
                           (observed != 0.0 ? std::fabs(observed) : 1.0);
  const int k = static_cast<int>(pattern.range.size());
  double calculated = 0.0;
  if (plan.pairwise) {
    const int b_pos = index.PosOfColumn(pattern.range[0]);
    const int c_pos = index.PosOfColumn(pattern.range[1]);
    if (b_pos < 0 || c_pos < 0) return;  // unusable range cell: reference skips
    const double b = index.value(b_pos);
    const double c = index.value(c_pos);
    bool may_hit = true;
    switch (pattern.function) {
      case AggregationFunction::kDifference:
        may_hit = DifferenceScreen::MayHit(b, c, observed, threshold);
        break;
      case AggregationFunction::kDivision:
        may_hit = DivisionScreen::MayHit(b, c, observed, threshold);
        break;
      case AggregationFunction::kRelativeChange:
        may_hit = RelativeChangeScreen::MayHit(b, c, observed, threshold);
        break;
      default:
        break;
    }
    if (!may_hit) return;  // certain miss, or a pair the reference skips
    const auto exact = ApplyPairwise(pattern.function, b, c);
    if (!exact.has_value()) return;
    calculated = *exact;
  } else {
    // Commutative: every range cell must be usable in this row, exactly as
    // the reference walk requires; gather compact positions and contiguity
    // in one pass over the (already compacted) range.
    int first_pos = -1;
    int expected = -1;
    bool contiguous = plan.ascending;
    for (int col : pattern.range) {
      const int pos = index.PosOfColumn(col);
      if (pos < 0) return;  // unusable range cell: reference skips the row
      if (expected >= 0 && pos != expected) contiguous = false;
      if (first_pos < 0) first_pos = pos;
      expected = pos + 1;
    }
    const double scale =
        pattern.function == AggregationFunction::kAverage
            ? static_cast<double>(k)
            : 1.0;
    if (contiguous) {
      // O(1) certain-miss screen, identical in form to the adjacency kernel.
      const int lo = first_pos;
      const int hi = first_pos + k;
      const double target = observed * scale;
      const double fast_sum = index.PrefixSum(lo, hi);
      const double gap = std::fabs(fast_sum - target);
      const double drift = index.SumErrorBound(hi) +
                           kEps * (std::fabs(fast_sum) + std::fabs(target));
      if (gap > (threshold * scale + drift) * kInflate) return;  // certain miss
      calculated = index.CompensatedSum(lo, hi, /*reverse=*/false) / scale;
    } else {
      // Non-contiguous (an interleaved usable cell outside the range, or a
      // non-ascending range): no prefix span exists; replay the reference
      // walk over the compacted values in range order.
      KahanAccumulator accumulator;
      for (int col : pattern.range) {
        accumulator.Add(index.value(index.PosOfColumn(col)));
      }
      calculated = accumulator.Total() / scale;
    }
  }
  const double error = ErrorLevel(observed, calculated);
  if (!WithinErrorLevel(error, error_level)) return;
  plan.Accept(row, error);
}

// Validates every plan on every row of `grid`, filling each plan's rows.
void ValidatePlans(const numfmt::AxisView& grid,
                   const std::vector<bool>& active_columns, double error_level,
                   const std::vector<PatternPlan>& plans) {
  size_t range_cells = 0;
  for (const PatternPlan& plan : plans) range_cells += plan.pattern->range.size();
  // Cost model: the indexed path pays one O(columns) compaction per row
  // (each compacted cell costs roughly 3x a naively gathered one — mask and
  // kind branches plus prefix/drift bookkeeping) and amortizes it over every
  // pattern, where it saves that pattern's per-row range gather and, on miss
  // rows, its whole range walk. Switch to the index only when the saved work
  // clearly exceeds the compaction; both checks are differentially
  // bit-identical, so this is purely about cost, never about results.
  const bool use_index = range_cells + 16 * plans.size() >=
                         3 * static_cast<size_t>(grid.columns());
  if (use_index) {
    LineIndex index;
    for (int row = 0; row < grid.rows(); ++row) {
      index.Build(grid, active_columns, row);
      for (const PatternPlan& plan : plans) {
        if (!grid.IsNumeric(row, plan.pattern->aggregate)) continue;
        ExtendRowWithIndex(grid, index, row, error_level, plan);
      }
    }
  } else {
    std::vector<double> values;
    for (const PatternPlan& plan : plans) {
      for (int row = 0; row < grid.rows(); ++row) {
        if (const auto error = ValidateRow(grid, active_columns, *plan.pattern,
                                           row, error_level, values)) {
          plan.Accept(row, *error);
        }
      }
    }
  }
}

// Whether extension validates `pattern` under `active_columns` at all: the
// active mask does not vary by row, so a pattern with an inactive aggregate
// or any inactive range column can never validate anywhere (the naive walk
// re-discovers this per row), and neither can a range Apply() rejects.
bool Extendable(const Aggregation& pattern,
                const std::vector<bool>& active_columns) {
  if (!active_columns[pattern.aggregate]) return false;
  for (int col : pattern.range) {
    if (!active_columns[col]) return false;
  }
  if (pattern.range.empty()) return false;  // Apply: nullopt
  return !TraitsOf(pattern.function).pairwise ||
         pattern.range.size() == 2;  // Apply: nullopt otherwise
}

// Hash of one pattern's fields, mixed boost::hash_combine style.
size_t HashPattern(Axis axis, int aggregate, const std::vector<int>& range,
                   AggregationFunction function) {
  size_t seed = static_cast<size_t>(aggregate);
  auto mix = [&seed](size_t value) {
    seed ^= value + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2);
  };
  mix(static_cast<size_t>(axis));
  mix(static_cast<size_t>(function));
  for (int col : range) mix(static_cast<size_t>(col));
  return seed;
}

// Number of `rows` (ascending) absent from the ascending `covered`.
size_t CountUncovered(const std::vector<int>& rows, const int* covered_begin,
                      const int* covered_end) {
  size_t count = 0;
  const int* covered = covered_begin;
  for (int row : rows) {
    while (covered != covered_end && *covered < row) ++covered;
    if (covered == covered_end || *covered != row) ++count;
  }
  return count;
}

}  // namespace

std::vector<Aggregation> ExtendAggregationsNaive(
    const numfmt::AxisView& grid, const std::vector<bool>& active_columns,
    const std::vector<Aggregation>& detected, double error_level) {
  // Pattern -> set of rows already covered.
  std::map<Pattern, std::vector<int>> covered;
  for (const auto& aggregation : detected) {
    covered[PatternOf(aggregation)].push_back(aggregation.line);
  }

  std::vector<Aggregation> out = detected;
  for (auto& [pattern, rows] : covered) {
    std::sort(rows.begin(), rows.end());
    if (!active_columns[pattern.aggregate]) continue;
    Aggregation exemplar;
    exemplar.axis = pattern.axis;
    exemplar.aggregate = pattern.aggregate;
    exemplar.range = pattern.range;
    exemplar.function = pattern.function;
    for (int row = 0; row < grid.rows(); ++row) {
      if (std::binary_search(rows.begin(), rows.end(), row)) continue;
      // A fresh gather buffer per row, as the original walk had: the
      // extension benchmark times the screened path against this cost.
      std::vector<double> values;
      if (const auto error = ValidateRow(grid, active_columns, exemplar, row,
                                         error_level, values)) {
        out.push_back(Validated(exemplar, row, *error));
      }
    }
  }
  return out;
}

size_t PatternLedger::Hash::operator()(const Pattern& pattern) const {
  return HashPattern(pattern.axis, pattern.aggregate, pattern.range,
                     pattern.function);
}

size_t PatternLedger::Hash::operator()(const Aggregation& aggregation) const {
  return HashPattern(aggregation.axis, aggregation.aggregate, aggregation.range,
                     aggregation.function);
}

bool PatternLedger::Equal::operator()(const Aggregation& a,
                                      const Pattern& b) const {
  return a.axis == b.axis && a.aggregate == b.aggregate &&
         a.function == b.function && a.range == b.range;
}

PatternLedger::PatternLedger(const numfmt::AxisView& grid, double error_level)
    : grid_(grid), error_level_(error_level) {}

std::vector<const PatternRows*> PatternLedger::Find(
    const std::vector<bool>& active,
    const std::vector<const Aggregation*>& patterns, Lookups& lookups) {
  std::vector<const PatternRows*> found(patterns.size(), nullptr);
  std::vector<size_t> missing;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < patterns.size(); ++i) {
      const auto it = records_.find(*patterns[i]);
      if (it != records_.end()) {
        found[i] = &it->second;
      } else {
        missing.push_back(i);
      }
    }
  }
  lookups.reused += patterns.size() - missing.size();
  if (missing.empty()) return found;

  // Validate outside the lock: concurrent runs keep looking up and
  // validating their own patterns meanwhile.
  std::vector<PatternRows> validated(missing.size());
  std::vector<PatternPlan> plans;
  plans.reserve(missing.size());
  for (size_t m = 0; m < missing.size(); ++m) {
    const Aggregation& pattern = *patterns[missing[m]];
    PatternPlan plan;
    plan.pattern = &pattern;
    plan.pairwise = TraitsOf(pattern.function).pairwise;
    plan.ascending = std::is_sorted(pattern.range.begin(), pattern.range.end());
    plan.out = &validated[m];
    plans.push_back(plan);
  }
  ValidatePlans(grid_, active, error_level_, plans);

  const std::lock_guard<std::mutex> lock(mutex_);
  for (size_t m = 0; m < missing.size(); ++m) {
    const auto [it, inserted] = records_.try_emplace(
        PatternOf(*patterns[missing[m]]), std::move(validated[m]));
    ++(inserted ? lookups.validated : lookups.reused);
    found[missing[m]] = &it->second;
  }
  return found;
}

Extension ExtendThroughLedger(PatternLedger& ledger,
                              const std::vector<bool>& active_columns,
                              std::vector<Aggregation> detected,
                              std::optional<double> coverage) {
  const numfmt::AxisView& grid = ledger.grid();
  // Group by pattern with one stable index sort: runs in Pattern order are
  // exactly the naive walk's std::map order, which fixes the emission order.
  // Each run's covered lines are gathered, sorted, into one shared buffer.
  const std::vector<size_t> order = OrderByPattern(detected);
  std::vector<int> covered(order.size());
  for (size_t i = 0; i < order.size(); ++i) covered[i] = detected[order[i]].line;

  struct Group {
    size_t begin;
    size_t end;
    const PatternRows* rows = nullptr;  // nullptr: not extendable
  };
  std::vector<Group> groups;
  std::vector<const Aggregation*> extendable;  // the patterns to look up
  std::vector<size_t> extendable_group;        // ... and their groups
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    const Aggregation& pattern = detected[order[begin]];
    end = begin + 1;
    while (end < order.size() && SamePattern(pattern, detected[order[end]])) ++end;
    std::sort(covered.begin() + static_cast<std::ptrdiff_t>(begin),
              covered.begin() + static_cast<std::ptrdiff_t>(end));
    if (Extendable(pattern, active_columns)) {
      extendable.push_back(&pattern);
      extendable_group.push_back(groups.size());
    }
    groups.push_back({begin, end});
  }
  PatternLedger::Lookups lookups;
  const std::vector<const PatternRows*> records =
      ledger.Find(active_columns, extendable, lookups);
  for (size_t e = 0; e < records.size(); ++e) {
    groups[extendable_group[e]].rows = records[e];
  }

  // Per group: the rows extension adds, and whether R1 dooms the group.
  Extension extension;
  std::vector<bool> dropped_seed(coverage ? detected.size() : 0, false);
  std::vector<const Group*> kept;
  size_t added = 0;
  for (const Group& group : groups) {
    const size_t seeds = group.end - group.begin;
    const size_t extra =
        group.rows == nullptr
            ? 0
            : CountUncovered(group.rows->rows, covered.data() + group.begin,
                             covered.data() + group.end);
    if (coverage) {
      const Aggregation& pattern = detected[order[group.begin]];
      const int numeric = grid.NumericCountInColumn(pattern.aggregate);
      if (Sufficiency(seeds + extra, numeric) < *coverage) {
        ++extension.dropped_groups;
        extension.dropped_members += seeds + extra;
        for (size_t i = group.begin; i < group.end; ++i) {
          dropped_seed[order[i]] = true;
        }
        continue;
      }
    }
    if (extra > 0) kept.push_back(&group);
    added += extra;
  }

  // The new aggregations, pattern by pattern, rows ascending; built before
  // `detected` changes, since the exemplars live in it.
  std::vector<Aggregation> fresh;
  fresh.reserve(added);
  for (const Group* group : kept) {
    const Aggregation& pattern = detected[order[group->begin]];
    const int* covered_at = covered.data() + group->begin;
    const int* covered_end = covered.data() + group->end;
    const PatternRows& rows = *group->rows;
    for (size_t r = 0; r < rows.rows.size(); ++r) {
      const int row = rows.rows[r];
      while (covered_at != covered_end && *covered_at < row) ++covered_at;
      if (covered_at != covered_end && *covered_at == row) continue;
      fresh.push_back(Validated(pattern, row, rows.errors[r]));
    }
  }

  if (extension.dropped_groups > 0) {
    size_t write = 0;
    for (size_t read = 0; read < detected.size(); ++read) {
      if (dropped_seed[read]) continue;
      if (write != read) detected[write] = std::move(detected[read]);
      ++write;
    }
    detected.erase(detected.begin() + static_cast<std::ptrdiff_t>(write),
                   detected.end());
  }
  detected.reserve(detected.size() + fresh.size());
  detected.insert(detected.end(), std::make_move_iterator(fresh.begin()),
                  std::make_move_iterator(fresh.end()));
  extension.candidates = std::move(detected);

  if (obs::Registry::enabled()) {
    obs::Count("ledger.patterns.validated", lookups.validated);
    obs::Count("ledger.patterns.reused", lookups.reused);
    obs::Count("ledger.groups.doomed", extension.dropped_groups);
    obs::Count("ledger.candidates.doomed", extension.dropped_members);
  }
  return extension;
}

std::vector<Aggregation> ExtendAggregations(const numfmt::AxisView& grid,
                                            const std::vector<bool>& active_columns,
                                            std::vector<Aggregation> detected,
                                            double error_level) {
  PatternLedger ledger(grid, error_level);
  return ExtendThroughLedger(ledger, active_columns, std::move(detected),
                             std::nullopt)
      .candidates;
}

}  // namespace aggrecol::core
