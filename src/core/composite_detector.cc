#include "core/composite_detector.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "core/approx.h"
#include "core/pruning.h"

namespace aggrecol::core {
namespace {

// The `window` nearest active range-usable cells on one side of a column,
// ordered by increasing distance (the same collection the sliding-window
// strategy uses).
std::vector<int> CollectWindow(const numfmt::AxisView& grid, int row, int column,
                               int step, int window) {
  std::vector<int> cells;
  for (int index = column + step;
       index >= 0 && index < grid.columns() &&
       static_cast<int>(cells.size()) < window;
       index += step) {
    if (grid.IsRangeUsable(row, index)) cells.push_back(index);
  }
  return cells;
}

// Pattern identity of a composite (line stripped).
struct CompositePattern {
  int aggregate;
  std::vector<int> numerator;
  int denominator;

  friend auto operator<=>(const CompositePattern&, const CompositePattern&) = default;
};

}  // namespace

std::string ToString(const CompositeAggregation& composite) {
  std::ostringstream oss;
  oss << "(" << ToString(composite.axis) << ":" << composite.line << ", "
      << composite.aggregate << " <- sum{";
  for (size_t i = 0; i < composite.numerator.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << composite.numerator[i];
  }
  oss << "} / " << composite.denominator << ", e=" << composite.error << ")";
  return oss.str();
}

std::vector<CompositeAggregation> DetectCompositeRowwise(
    const numfmt::AxisView& grid, const CompositeConfig& config,
    const std::vector<Aggregation>& detected) {
  // Ranges of detected sum aggregations (any line): a composite whose
  // numerator matches one of them is redundant with the plain division over
  // the existing intermediate total.
  std::set<std::vector<int>> detected_sum_ranges;
  // Cells already acting as division aggregates: the plain division covers
  // them.
  std::set<std::pair<int, int>> division_aggregates;  // (line, column)
  for (const auto& aggregation : detected) {
    const Aggregation canonical = Canonicalize(aggregation);
    if (canonical.function == AggregationFunction::kSum) {
      detected_sum_ranges.insert(canonical.range);
    } else if (canonical.function == AggregationFunction::kDivision) {
      division_aggregates.insert({canonical.line, canonical.aggregate});
    }
  }

  std::vector<CompositeAggregation> candidates;
  for (int row = 0; row < grid.rows(); ++row) {
    for (int column = 0; column < grid.columns(); ++column) {
      if (!grid.IsNumeric(row, column)) continue;
      if (division_aggregates.count({row, column}) > 0) continue;
      const double observed = grid.value(row, column);
      for (int step : {+1, -1}) {
        const std::vector<int> window =
            CollectWindow(grid, row, column, step, config.window_size);
        const int n = static_cast<int>(window.size());
        for (int start = 0; start < n; ++start) {
          double numerator_sum = 0.0;
          for (int length = 1; start + length <= n; ++length) {
            numerator_sum += grid.value(row, window[start + length - 1]);
            if (length < config.min_numerator) continue;
            if (length > config.max_numerator) break;
            for (int d = 0; d < n; ++d) {
              if (d >= start && d < start + length) continue;  // inside the run
              const double denominator = grid.value(row, window[d]);
              if (denominator == 0.0) continue;
              const double error =
                  ErrorLevel(observed, numerator_sum / denominator);
              if (!WithinErrorLevel(error, config.error_level)) continue;
              CompositeAggregation composite;
              composite.axis = Axis::kRow;
              composite.line = row;
              composite.aggregate = column;
              composite.numerator.assign(window.begin() + start,
                                         window.begin() + start + length);
              std::sort(composite.numerator.begin(), composite.numerator.end());
              composite.denominator = window[d];
              composite.error = error;
              if (detected_sum_ranges.count(composite.numerator) > 0) continue;
              if (std::find(candidates.begin(), candidates.end(), composite) ==
                  candidates.end()) {
                candidates.push_back(std::move(composite));
              }
            }
          }
        }
      }
    }
  }

  // Group by pattern and apply the coverage threshold; among groups sharing
  // an aggregate, keep the best-covered one (the stage-1 discipline).
  std::map<CompositePattern, std::vector<CompositeAggregation>> groups;
  for (const auto& candidate : candidates) {
    groups[{candidate.aggregate, candidate.numerator, candidate.denominator}]
        .push_back(candidate);
  }
  struct ScoredGroup {
    CompositePattern pattern;
    std::vector<CompositeAggregation> members;
    double sufficiency;
  };
  std::vector<ScoredGroup> scored;
  for (auto& [pattern, members] : groups) {
    const double sufficiency =
        Sufficiency(members.size(), grid.NumericCountInColumn(pattern.aggregate));
    if (sufficiency >= config.coverage) {
      scored.push_back({pattern, std::move(members), sufficiency});
    }
  }
  std::map<int, double> best_by_aggregate;
  for (const auto& group : scored) {
    auto [it, inserted] =
        best_by_aggregate.try_emplace(group.pattern.aggregate, group.sufficiency);
    if (!inserted) it->second = std::max(it->second, group.sufficiency);
  }
  std::erase_if(scored, [&best_by_aggregate](const ScoredGroup& group) {
    return group.sufficiency < best_by_aggregate.at(group.pattern.aggregate);
  });

  // A = sum(M)/C implies the mirror C = sum(M)/A — a circular pair like the
  // division inversion of the core pipeline. Rank ratio-valued aggregates
  // first (real composites record part-of-whole shares) and drop the
  // lower-ranked partner of any circular pair.
  auto ratio_fraction = [&grid](const ScoredGroup& group) {
    int ratio_like = 0;
    for (const auto& member : group.members) {
      const double value = grid.value(member.line, member.aggregate);
      if (value > -1.0 && value < 1.0 && value != 0.0) ++ratio_like;
    }
    return static_cast<double>(ratio_like) / static_cast<double>(group.members.size());
  };
  std::sort(scored.begin(), scored.end(),
            [&ratio_fraction](const ScoredGroup& a, const ScoredGroup& b) {
              const double ratio_a = ratio_fraction(a);
              const double ratio_b = ratio_fraction(b);
              if (!ApproxEq(ratio_a, ratio_b)) return ratio_a > ratio_b;
              if (a.members.size() != b.members.size()) {
                return a.members.size() > b.members.size();
              }
              return a.pattern < b.pattern;
            });
  std::vector<const ScoredGroup*> accepted;
  for (const auto& group : scored) {
    const bool circular = std::any_of(
        accepted.begin(), accepted.end(), [&group](const ScoredGroup* other) {
          return (group.pattern.denominator == other->pattern.aggregate &&
                  other->pattern.denominator == group.pattern.aggregate) ||
                 std::find(other->pattern.numerator.begin(),
                           other->pattern.numerator.end(),
                           group.pattern.aggregate) != other->pattern.numerator.end();
        });
    if (!circular) accepted.push_back(&group);
  }

  std::vector<CompositeAggregation> out;
  for (const ScoredGroup* group : accepted) {
    out.insert(out.end(), group->members.begin(), group->members.end());
  }
  return out;
}

}  // namespace aggrecol::core
