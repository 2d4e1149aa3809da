#include "core/individual_detector.h"

#include <algorithm>
#include <iterator>

#include "core/adjacency_strategy.h"
#include "core/extension.h"
#include "core/line_index.h"
#include "core/pruning.h"
#include "core/window_strategy.h"
#include "obs/metrics.h"

namespace aggrecol::core {

std::vector<Aggregation> DetectIndividualRowwise(
    const numfmt::AxisView& grid, AggregationFunction function,
    const IndividualConfig& config, const std::vector<bool>* initial_active) {
  const FunctionTraits traits = TraitsOf(function);
  std::vector<bool> active = initial_active
                                 ? *initial_active
                                 : std::vector<bool>(grid.columns(), true);

  // Candidates are owned values that move from the row scan through
  // extension and pruning into `detected`; none is copied on the way.
  std::vector<Aggregation> detected;
  // OrderByIdentity(detected): the membership index later cumulative rounds
  // check their candidates against.
  std::vector<size_t> detected_order;
  while (true) {
    config.cancel.ThrowIfCancelled();

    // Lines 4-7: per-row adjacent detection with the appropriate strategy.
    // Rows are independent; with a pool they are scanned in parallel chunks
    // and concatenated in row order (the Sec. 4.4 parallelism), so the
    // output is identical for any thread count. Each chunk owns one
    // LineIndex that every row scan of the chunk rebuilds in place, and
    // appends its rows' candidates to one chunk vector.
    const int chunk_count = std::max(
        1, config.pool != nullptr
               ? std::min(config.pool->thread_count() * 2, grid.rows())
               : 1);
    const int chunk_size = (grid.rows() + chunk_count - 1) / chunk_count;
    std::vector<std::vector<Aggregation>> chunks = util::ParallelMap(
        config.pool, static_cast<size_t>(chunk_count),
        [&](size_t chunk) {
          const int begin = static_cast<int>(chunk) * chunk_size;
          const int end = std::min(grid.rows(), begin + chunk_size);
          LineIndex index;
          std::vector<Aggregation> chunk_results;
          for (int row = begin; row < end; ++row) {
            config.cancel.ThrowIfCancelled();
            if (traits.commutative) {
              DetectAdjacentCommutative(grid, active, row, function,
                                        config.error_level, index, chunk_results);
            } else {
              DetectWindowPairwise(grid, active, row, function,
                                   config.error_level, config.window_size, index,
                                   chunk_results);
            }
          }
          return chunk_results;
        });
    std::vector<Aggregation> round = std::move(chunks.front());
    for (size_t chunk = 1; chunk < chunks.size(); ++chunk) {
      round.insert(round.end(), std::make_move_iterator(chunks[chunk].begin()),
                   std::make_move_iterator(chunks[chunk].end()));
    }

    // Candidate accounting happens here, after the chunks are merged back on
    // the calling thread, so the counts are position-independent and identical
    // for any thread count.
    const bool obs_on = obs::Registry::enabled();
    if (obs_on) {
      obs::Count("individual.rounds");
      obs::Count(traits.commutative ? "individual.candidates.adjacency"
                                    : "individual.candidates.window",
                 round.size());
    }

    // Line 8: extension across rows.
    round = ExtendAggregations(grid, active, std::move(round), config.error_level);
    if (obs_on) obs::Count("individual.candidates.extended", round.size());

    // Drop anything already found in a previous iteration.
    if (!detected.empty()) {
      std::erase_if(round, [&](const Aggregation& candidate) {
        return ContainsIdentity(detected, detected_order, candidate);
      });
    }

    // Lines 9-10.
    if (round.empty()) break;

    // Line 11: prune spurious pattern groups.
    round = PruneIndividual(grid, std::move(round), config.coverage, config.rules);
    if (obs_on) obs::Count("individual.accepted", round.size());
    if (round.empty()) break;  // nothing survived; iterating again would repeat

    const size_t first_new = detected.size();
    detected.insert(detected.end(), std::make_move_iterator(round.begin()),
                    std::make_move_iterator(round.end()));

    // Lines 13-15: only cumulative functions can stack further aggregations
    // on top of detected aggregates; their range columns are consumed.
    if (!traits.cumulative) break;
    for (size_t i = first_new; i < detected.size(); ++i) {
      for (int col : detected[i].range) active[col] = false;
    }
    detected_order = OrderByIdentity(detected);
  }
  return detected;
}

}  // namespace aggrecol::core
