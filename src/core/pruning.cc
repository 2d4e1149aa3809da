#include "core/pruning.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <tuple>

#include "core/approx.h"
#include "obs/metrics.h"

namespace aggrecol::core {
namespace {

// Sums the member (candidate) counts of `groups` for the prune accounting.
size_t MemberCount(const std::vector<PatternGroup>& groups) {
  size_t members = 0;
  for (const auto& group : groups) members += group.members.size();
  return members;
}

bool Contains(const std::vector<int>& range, int index) {
  return std::find(range.begin(), range.end(), index) != range.end();
}

bool RangesOverlap(const std::vector<int>& a, const std::vector<int>& b) {
  for (int index : a) {
    if (Contains(b, index)) return true;
  }
  return false;
}

// One-directional complete inclusion: inner's aggregate and part of inner's
// range lie inside outer's range.
bool CompletelyIncluded(const Pattern& inner, const Pattern& outer) {
  return Contains(outer.range, inner.aggregate) &&
         RangesOverlap(inner.range, outer.range);
}

// Sorted-range counterparts of the helpers above, for the PatternGroup
// predicate overloads: membership is a binary search, overlap a two-pointer
// merge walk. Set questions over the same elements — answers are identical
// to the linear forms.
bool SortedContains(const std::vector<int>& sorted, int index) {
  return std::binary_search(sorted.begin(), sorted.end(), index);
}

bool SortedOverlap(const std::vector<int>& a, const std::vector<int>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

bool CompletelyIncluded(const PatternGroup& inner, const PatternGroup& outer) {
  return SortedContains(outer.sorted_range, inner.pattern.aggregate) &&
         SortedOverlap(inner.sorted_range, outer.sorted_range);
}

}  // namespace

std::vector<PatternGroup> GroupByPattern(const numfmt::AxisView& grid,
                                         const std::vector<Aggregation>& candidates) {
  return GroupByPattern(grid, std::vector<Aggregation>(candidates));
}

std::vector<PatternGroup> GroupByPattern(const numfmt::AxisView& grid,
                                         std::vector<Aggregation>&& candidates) {
  const std::vector<size_t> order = OrderByPattern(candidates);
  std::vector<PatternGroup> out;
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    end = begin + 1;
    while (end < order.size() &&
           SamePattern(candidates[order[begin]], candidates[order[end]])) {
      ++end;
    }
    PatternGroup group;
    group.pattern = PatternOf(candidates[order[begin]]);
    group.members.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      group.members.push_back(std::move(candidates[order[i]]));
    }
    const Pattern& pattern = group.pattern;
    const int numeric_in_column = grid.NumericCountInColumn(pattern.aggregate);
    group.sufficiency = numeric_in_column > 0
                            ? static_cast<double>(group.members.size()) / numeric_in_column
                            : 0.0;
    double total_error = 0.0;
    for (const auto& member : group.members) total_error += member.error;
    group.mean_error = total_error / static_cast<double>(group.members.size());
    group.sorted_range = pattern.range;
    std::sort(group.sorted_range.begin(), group.sorted_range.end());
    group.side = SideOf(pattern);
    if (pattern.function == AggregationFunction::kDivision) {
      // Precomputed once here; the stage-1 rank comparator used to rescan
      // every member on every comparison inside the sort.
      int ratio_like = 0;
      for (const auto& member : group.members) {
        const double value = grid.value(member.line, member.aggregate);
        if (value > -1.0 && value < 1.0 && value != 0.0) ++ratio_like;
      }
      group.ratio_fraction = static_cast<double>(ratio_like) /
                             static_cast<double>(group.members.size());
    }
    out.push_back(std::move(group));
  }
  return out;
}

RangeSide SideOf(const Pattern& pattern) {
  bool any_left = false;
  bool any_right = false;
  for (int col : pattern.range) {
    if (col < pattern.aggregate) any_left = true;
    if (col > pattern.aggregate) any_right = true;
  }
  if (any_left && any_right) return RangeSide::kMixed;
  return any_left ? RangeSide::kLeft : RangeSide::kRight;
}

bool DirectionalDisagreement(const Pattern& a, const Pattern& b) {
  if (a.axis != b.axis || a.function != b.function) return false;
  if (a.aggregate != b.aggregate) return false;
  const RangeSide side_a = SideOf(a);
  const RangeSide side_b = SideOf(b);
  if (side_a == RangeSide::kMixed || side_b == RangeSide::kMixed) return true;
  return side_a != side_b;
}

bool CompleteInclusion(const Pattern& a, const Pattern& b) {
  if (a.axis != b.axis) return false;
  return CompletelyIncluded(a, b) || CompletelyIncluded(b, a);
}

bool MutualInclusion(const Pattern& a, const Pattern& b) {
  if (a.axis != b.axis) return false;
  return Contains(b.range, a.aggregate) && Contains(a.range, b.aggregate);
}

bool SameAggregateOverlappingRange(const Pattern& a, const Pattern& b) {
  if (a.axis != b.axis) return false;
  if (a.aggregate != b.aggregate) return false;
  return RangesOverlap(a.range, b.range);
}

bool DirectionalDisagreement(const PatternGroup& a, const PatternGroup& b) {
  if (a.pattern.axis != b.pattern.axis ||
      a.pattern.function != b.pattern.function) {
    return false;
  }
  if (a.pattern.aggregate != b.pattern.aggregate) return false;
  if (a.side == RangeSide::kMixed || b.side == RangeSide::kMixed) return true;
  return a.side != b.side;
}

bool CompleteInclusion(const PatternGroup& a, const PatternGroup& b) {
  if (a.pattern.axis != b.pattern.axis) return false;
  return CompletelyIncluded(a, b) || CompletelyIncluded(b, a);
}

bool MutualInclusion(const PatternGroup& a, const PatternGroup& b) {
  if (a.pattern.axis != b.pattern.axis) return false;
  return SortedContains(b.sorted_range, a.pattern.aggregate) &&
         SortedContains(a.sorted_range, b.pattern.aggregate);
}

bool SameAggregateOverlappingRange(const PatternGroup& a, const PatternGroup& b) {
  if (a.pattern.axis != b.pattern.axis) return false;
  if (a.pattern.aggregate != b.pattern.aggregate) return false;
  return SortedOverlap(a.sorted_range, b.sorted_range);
}

std::vector<Aggregation> PruneIndividual(const numfmt::AxisView& grid,
                                         std::vector<Aggregation> candidates,
                                         double coverage, const PruningRules& rules) {
  const size_t input_candidates = candidates.size();
  std::vector<PatternGroup> groups = GroupByPattern(grid, std::move(candidates));

  // Per-rule prune accounting (docs/OBSERVABILITY.md): every drop below is
  // attributed to the rule that caused it. The obs helpers no-op unless a
  // metrics run is active, and the group/member counting is gated the same
  // way so the disabled path does no extra work.
  const bool obs_on = obs::Registry::enabled();
  if (obs_on) {
    obs::Count("prune.runs");
    obs::Count("prune.input.groups", groups.size());
    obs::Count("prune.input.candidates", input_candidates);
  }

  // 1. Coverage threshold on the sufficiency score (rule R1).
  if (rules.coverage_threshold) {
    const size_t groups_before = groups.size();
    const size_t members_before = obs_on ? MemberCount(groups) : 0;
    std::erase_if(groups, [coverage](const PatternGroup& group) {
      return group.sufficiency < coverage;
    });
    if (obs_on) {
      obs::Count("prune.r1_coverage.groups", groups_before - groups.size());
      obs::Count("prune.r1_coverage.candidates",
                 members_before - MemberCount(groups));
    }
  }

  // Rank order used both for the same-aggregate/same-range dedup below and
  // for the conflict walk: higher sufficiency first, then (for divisions)
  // the part-of-whole ratio preference, then more members, smaller mean
  // error, and pattern order as a deterministic final tie-break. The ratio
  // preference resolves the inherent A = B/C vs C = B/A ambiguity toward the
  // ratio-valued aggregate, per the paper's Sec. 3.2 observation that real
  // divisions record "the percentage that a part accounts for in the
  // entirety".
  auto ranks_before = [](const PatternGroup& a, const PatternGroup& b) {
    if (a.pattern.function == AggregationFunction::kDivision &&
        b.pattern.function == AggregationFunction::kDivision) {
      // ratio_fraction is precomputed by GroupByPattern; the comparator used
      // to rescan every member's aggregate cell on every sort comparison.
      if (!ApproxEq(a.ratio_fraction, b.ratio_fraction)) {
        return a.ratio_fraction > b.ratio_fraction;
      }
    }
    if (a.members.size() != b.members.size()) {
      return a.members.size() > b.members.size();
    }
    if (!ApproxEq(a.mean_error, b.mean_error)) return a.mean_error < b.mean_error;
    return a.pattern < b.pattern;
  };

  // 2a/2b. Among same-function groups sharing an aggregate, only the one
  // with the highest sufficiency score is preserved (Sec. 3.1); likewise for
  // groups sharing a range. Sufficiency ties resolve by the rank order so a
  // single group survives per key. The keys are function-scoped: a cell may
  // legitimately be the aggregate of two different functions with disjoint
  // ranges (the net-income example of Sec. 3.2), which the collective stage
  // arbitrates.
  //
  // Groups sharing a key are found with a stable index sort by key, so each
  // key's groups are visited in list order, and the best is picked exactly
  // as a first-come map of running winners would. Winners move into place.
  auto dedup_by = [&](auto key_less, const char* rule) {
    std::vector<size_t> order(groups.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return key_less(groups[a], groups[b]);
    });
    std::vector<bool> winner(groups.size(), false);
    for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
      size_t best = order[begin];
      for (end = begin + 1; end < order.size() &&
                            !key_less(groups[order[begin]], groups[order[end]]);
           ++end) {
        const PatternGroup& group = groups[order[end]];
        if (ApproxEq(group.sufficiency, groups[best].sufficiency)
                ? ranks_before(group, groups[best])
                : group.sufficiency > groups[best].sufficiency) {
          best = order[end];
        }
      }
      winner[best] = true;
    }
    const size_t groups_before = groups.size();
    size_t dropped_members = 0;
    size_t kept = 0;
    for (size_t i = 0; i < groups.size(); ++i) {
      if (!winner[i]) {
        dropped_members += groups[i].members.size();
        continue;
      }
      if (kept != i) groups[kept] = std::move(groups[i]);
      ++kept;
    }
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(kept), groups.end());
    if (obs_on) {
      obs::Count(std::string(rule) + ".groups", groups_before - groups.size());
      obs::Count(std::string(rule) + ".candidates", dropped_members);
    }
  };
  if (rules.same_aggregate_dedup && !groups.empty()) {
    // Rule R2.
    dedup_by(
        [](const PatternGroup& a, const PatternGroup& b) {
          return std::tie(a.pattern.function, a.pattern.aggregate) <
                 std::tie(b.pattern.function, b.pattern.aggregate);
        },
        "prune.r2_same_aggregate");
  }
  if (rules.same_range_dedup && !groups.empty()) {
    // Rule R3.
    dedup_by(
        [](const PatternGroup& a, const PatternGroup& b) {
          return std::tie(a.pattern.function, a.pattern.range) <
                 std::tie(b.pattern.function, b.pattern.range);
        },
        "prune.r3_same_range");
  }

  // 3. Rank the survivors and walk the list, dropping groups that cannot
  // co-exist with an already-accepted one.
  std::sort(groups.begin(), groups.end(), ranks_before);

  std::vector<PatternGroup*> accepted;
  size_t accepted_members = 0;
  for (auto& group : groups) {
    // Rule R4: the first matching heuristic against any accepted group wins,
    // so drops are attributed to exactly one of the three conflict reasons.
    const char* conflict = nullptr;
    for (const PatternGroup* other : accepted) {
      // Group-overload predicates: same answers as the Pattern forms over the
      // precomputed sorted ranges and sides (see pruning.h).
      if (rules.directional_disagreement &&
          DirectionalDisagreement(group, *other)) {
        conflict = "prune.r4_conflict.directional";
      } else if (rules.complete_inclusion && CompleteInclusion(group, *other)) {
        conflict = "prune.r4_conflict.complete_inclusion";
      } else if (rules.mutual_inclusion && MutualInclusion(group, *other)) {
        conflict = "prune.r4_conflict.mutual_inclusion";
      }
      if (conflict != nullptr) break;
    }
    if (conflict == nullptr) {
      accepted.push_back(&group);
      accepted_members += group.members.size();
    } else if (obs_on) {
      obs::Count(conflict);
      obs::Count("prune.r4_conflict.groups");
      obs::Count("prune.r4_conflict.candidates", group.members.size());
    }
  }

  // Every conflict test above has run, so the accepted members can move out.
  std::vector<Aggregation> out;
  out.reserve(accepted_members);
  for (PatternGroup* group : accepted) {
    out.insert(out.end(), std::make_move_iterator(group->members.begin()),
               std::make_move_iterator(group->members.end()));
  }
  if (obs_on) {
    obs::Count("prune.accepted.groups", accepted.size());
    obs::Count("prune.accepted.candidates", out.size());
  }
  return out;
}

}  // namespace aggrecol::core
