#include "core/supplemental_detector.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <set>

#include "core/individual_detector.h"
#include "core/pruning.h"
#include "obs/metrics.h"

namespace aggrecol::core {
namespace {

// Collects the distinct aggregate columns of `aggregations`, split by the
// cumulative property of their function.
void CollectAggregateColumns(const std::vector<Aggregation>& aggregations,
                             std::set<int>* non_cumulative, std::set<int>* cumulative) {
  for (const auto& aggregation : aggregations) {
    if (TraitsOf(aggregation.function).cumulative) {
      cumulative->insert(aggregation.aggregate);
    } else {
      non_cumulative->insert(aggregation.aggregate);
    }
  }
  // A column already forced out stays out.
  for (int col : *non_cumulative) cumulative->erase(col);
}

// Enumerates the column-removal configurations (Alg. 2, line 6): the
// non-cumulative aggregate columns are always removed; each subset of the
// cumulative aggregate columns may additionally be removed. Configurations
// are emitted as active-column masks. Beyond `max_configurations`, subsets
// are taken in order of increasing cardinality (plus the full set), so the
// most-informative all-excluded/all-included extremes always survive the cap.
std::vector<std::vector<bool>> BuildConfigurations(
    int columns, const std::set<int>& non_cumulative, const std::set<int>& cumulative,
    int max_configurations) {
  const std::vector<int> cumulative_cols(cumulative.begin(), cumulative.end());
  const size_t k = cumulative_cols.size();
  // A subset is a bit mask over the first 64 cumulative columns; a column
  // past those (only files with pruning rules ablated reach that many) is
  // removed exactly when the subset is the full set.
  const size_t addressable = std::min<size_t>(k, 64);
  const uint64_t full =
      addressable == 64 ? ~uint64_t{0} : (uint64_t{1} << addressable) - 1;

  std::vector<std::vector<bool>> masks;
  auto make_mask = [&](uint64_t subset_bits) {
    std::vector<bool> active(columns, true);
    for (int col : non_cumulative) active[col] = false;
    for (size_t b = 0; b < k; ++b) {
      const bool removed =
          b < 64 ? ((subset_bits >> b) & 1) != 0 : subset_bits == full;
      if (removed) active[cumulative_cols[b]] = false;
    }
    return active;
  };

  if (k < 63 && (uint64_t{1} << k) <= static_cast<uint64_t>(max_configurations)) {
    for (uint64_t bits = 0; bits < (uint64_t{1} << k); ++bits) {
      masks.push_back(make_mask(bits));
    }
  } else {
    std::set<uint64_t> chosen;
    chosen.insert(0);
    chosen.insert(full);
    // Subsets by increasing cardinality: singletons, then pairs, ...
    for (size_t cardinality = 1;
         cardinality < addressable &&
         chosen.size() < static_cast<size_t>(max_configurations);
         ++cardinality) {
      // Iterate singleton/pair/... subsets via simple index combinations.
      std::vector<size_t> combo(cardinality);
      for (size_t i = 0; i < cardinality; ++i) combo[i] = i;
      while (chosen.size() < static_cast<size_t>(max_configurations)) {
        uint64_t bits = 0;
        for (size_t idx : combo) bits |= uint64_t{1} << idx;
        chosen.insert(bits);
        // Next combination.
        size_t i = cardinality;
        while (i > 0 && combo[i - 1] == addressable - cardinality + (i - 1)) --i;
        if (i == 0) break;
        ++combo[i - 1];
        for (size_t j = i; j < cardinality; ++j) combo[j] = combo[j - 1] + 1;
      }
    }
    for (uint64_t bits : chosen) masks.push_back(make_mask(bits));
  }

  // Drop the configuration that removes nothing: it is the original file,
  // which the earlier stages already processed.
  std::erase_if(masks, [columns](const std::vector<bool>& mask) {
    return std::all_of(mask.begin(), mask.end(), [](bool b) { return b; });
  });
  return masks;
}

}  // namespace

std::vector<Aggregation> DetectSupplementalRowwise(
    const numfmt::AxisView& grid, const SupplementalConfig& config,
    const std::vector<Aggregation>& detected) {
  std::deque<AggregationFunction> queue(config.functions.begin(),
                                        config.functions.end());
  std::vector<Aggregation> supplemental;

  // Sorted indexes over the accepted aggregations: membership, and the
  // ranges claimed per (function, aggregate) — both hot on files with
  // thousands of detections.
  std::set<Aggregation, bool (*)(const Aggregation&, const Aggregation&)> known_set(
      &AggregationLess);
  std::map<std::pair<AggregationFunction, int>, std::set<std::vector<int>>>
      claimed_ranges;
  auto index_aggregation = [&](const Aggregation& aggregation) {
    known_set.insert(aggregation);
    claimed_ranges[{aggregation.function, aggregation.aggregate}].insert(
        aggregation.range);
  };
  for (const auto& aggregation : detected) index_aggregation(aggregation);

  auto known = [&](const Aggregation& candidate) {
    return known_set.count(candidate) > 0;
  };

  // A cell carries at most one aggregation per function (the same-aggregate
  // dedup of the stage-1 pruning): a supplemental candidate whose aggregate
  // is already claimed by an accepted same-function aggregation is an
  // alternative decomposition exposed by the column removal, not a new
  // aggregation. Division stays exempt, as in the collective stage.
  auto aggregate_claimed = [&](const Aggregation& candidate) {
    if (candidate.function == AggregationFunction::kDivision) return false;
    const auto it =
        claimed_ranges.find({candidate.function, candidate.aggregate});
    if (it == claimed_ranges.end()) return false;
    // Same pattern on another line is fine; a *different* range over the
    // same aggregate is the conflicting alternative decomposition.
    return it->second.size() > 1 || it->second.count(candidate.range) == 0;
  };

  const bool obs_on = obs::Registry::enabled();
  if (obs_on) obs::Count("stage3.runs");

  while (!queue.empty()) {
    config.cancel.ThrowIfCancelled();
    const AggregationFunction function = queue.front();
    queue.pop_front();
    if (obs_on) obs::Count("stage3.rounds");

    // Construct derived files from everything detected so far (line 6).
    std::set<int> non_cumulative_cols;
    std::set<int> cumulative_cols;
    CollectAggregateColumns(detected, &non_cumulative_cols, &cumulative_cols);
    CollectAggregateColumns(supplemental, &non_cumulative_cols, &cumulative_cols);
    const std::vector<std::vector<bool>> configurations = BuildConfigurations(
        grid.columns(), non_cumulative_cols, cumulative_cols,
        config.max_configurations);
    if (obs_on) obs::Count("stage3.configurations", configurations.size());

    IndividualConfig individual;
    individual.error_level = config.error_levels[IndexOf(function)];
    individual.coverage = config.coverage;
    individual.window_size = config.window_size;
    individual.rules = config.rules;
    // The pool's work stealing spreads workers over the derived files and
    // their per-row scans; no static thread split needed.
    individual.pool = config.pool;
    individual.cancel = config.cancel;

    // Each derived file is independent; run them concurrently when a pool is
    // present, then filter in configuration order so results stay
    // deterministic.
    std::vector<std::vector<Aggregation>> per_configuration =
        util::ParallelMap(config.pool, configurations.size(), [&](size_t c) {
          return DetectIndividualRowwise(grid, function, individual,
                                         &configurations[c]);
        });

    std::vector<Aggregation> fresh;
    std::set<Aggregation, bool (*)(const Aggregation&, const Aggregation&)> fresh_set(
        &AggregationLess);
    for (auto& results : per_configuration) {
      for (auto& result : results) {
        // Attribution mirrors the original short-circuit order, so every
        // rejected candidate counts under exactly one stage3.dropped.* reason.
        if (known(result)) {
          if (obs_on) obs::Count("stage3.dropped.known");
          continue;
        }
        if (aggregate_claimed(result)) {
          if (obs_on) obs::Count("stage3.dropped.claimed");
          continue;
        }
        if (fresh_set.count(result) > 0) {
          if (obs_on) obs::Count("stage3.dropped.duplicate");
          continue;
        }
        fresh_set.insert(result);
        fresh.push_back(std::move(result));
      }
    }
    if (obs_on) obs::Count("stage3.fresh", fresh.size());

    if (!fresh.empty()) {
      for (const auto& aggregation : fresh) index_aggregation(aggregation);
      supplemental.insert(supplemental.end(), std::make_move_iterator(fresh.begin()),
                          std::make_move_iterator(fresh.end()));
      // Reload the other detectors (line 13): new aggregates may unblock
      // interrupt aggregations of other functions.
      for (AggregationFunction other : config.functions) {
        if (other == function) continue;  // q <- {detectors \ d} ∪ q
        if (std::find(queue.begin(), queue.end(), other) == queue.end()) {
          queue.push_back(other);
        }
      }
    }
  }

  // Line 15: prune with the stage-1 rules. The already-accepted aggregations
  // take part in the pruning so that a supplemental candidate sharing an
  // aggregate with a validated pattern (an "alternative decomposition" of a
  // cumulative total, exposed by removing the intermediate aggregate columns)
  // loses the same-aggregate sufficiency contest; only the surviving *new*
  // aggregations are returned.
  std::vector<Aggregation> joint;
  joint.reserve(detected.size() + supplemental.size());
  joint.insert(joint.end(), detected.begin(), detected.end());
  joint.insert(joint.end(), std::make_move_iterator(supplemental.begin()),
               std::make_move_iterator(supplemental.end()));
  std::vector<Aggregation> pruned =
      PruneIndividual(grid, std::move(joint), config.coverage, config.rules);
  // Drop the already-accepted survivors. A sorted index over `detected`
  // keeps this O((n + m) log n) on tall files with thousands of detections.
  const std::vector<size_t> detected_order = OrderByIdentity(detected);
  std::erase_if(pruned, [&](const Aggregation& aggregation) {
    return ContainsIdentity(detected, detected_order, aggregation);
  });
  if (obs_on) obs::Count("stage3.returned", pruned.size());
  return pruned;
}

}  // namespace aggrecol::core
