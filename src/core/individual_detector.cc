#include "core/individual_detector.h"

#include <algorithm>
#include <iterator>
#include <optional>

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
  std::optional<PatternLedger> local_ledger;
  if (config.ledger == nullptr) local_ledger.emplace(grid, config.error_level);
  PatternLedger& ledger = config.ledger ? *config.ledger : *local_ledger;
  const std::optional<double> r1_coverage =
      config.rules.coverage_threshold ? std::optional<double>(config.coverage)
                                      : std::nullopt;
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
    struct Chunk {
      std::vector<Aggregation> candidates;
      WindowScanCounts window;
    };
    const int chunk_count = std::max(
        1, config.pool != nullptr
               ? std::min(config.pool->thread_count() * 2, grid.rows())
               : 1);
    const int chunk_size = (grid.rows() + chunk_count - 1) / chunk_count;
    std::vector<Chunk> chunks = util::ParallelMap(
        config.pool, static_cast<size_t>(chunk_count),
        [&](size_t chunk) {
          const int begin = static_cast<int>(chunk) * chunk_size;
          const int end = std::min(grid.rows(), begin + chunk_size);
          LineIndex index;
          Chunk result;
          for (int row = begin; row < end; ++row) {
            config.cancel.ThrowIfCancelled();
            if (traits.commutative) {
              DetectAdjacentCommutative(grid, active, row, function,
                                        config.error_level, index,
                                        result.candidates);
            } else {
              DetectWindowPairwise(grid, active, row, function,
                                   config.error_level, config.window_size, index,
                                   result.candidates, result.window);
            }
          }
          return result;
        });
    std::vector<Aggregation> round = std::move(chunks.front().candidates);
    WindowScanCounts window = chunks.front().window;
    for (size_t chunk = 1; chunk < chunks.size(); ++chunk) {
      round.insert(round.end(),
                   std::make_move_iterator(chunks[chunk].candidates.begin()),
                   std::make_move_iterator(chunks[chunk].candidates.end()));
      window += chunks[chunk].window;
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
      if (!traits.commutative) {
        obs::Count("window.windows_rejected", window.windows_rejected);
        obs::Count("window.rows_gated", window.rows_gated);
        obs::Count("window.rows_screened", window.rows_screened);
        obs::Count("window.rows_replayed", window.rows_replayed);
      }
    }

    // Line 8: extension across rows, through the ledger. Groups that rule R1
    // of line 11 would drop leave here, before their extension rows are
    // built; the prune below counts them as its own R1 drops.
    Extension extension =
        ExtendThroughLedger(ledger, active, std::move(round), r1_coverage);
    round = std::move(extension.candidates);
    const PrunedUpstream r1_dropped{extension.dropped_groups,
                                    extension.dropped_members};
    if (obs_on) {
      obs::Count("individual.candidates.extended",
                 round.size() + r1_dropped.candidates);
    }

    // Drop anything already found in a previous iteration. (A later round's
    // candidates never repeat one: the columns of every detected range are
    // inactive by then, and both the scan and extension only form ranges of
    // active columns. So the R1 drop above never counts one either.)
    if (!detected.empty()) {
      std::erase_if(round, [&](const Aggregation& candidate) {
        return ContainsIdentity(detected, detected_order, candidate);
      });
    }

    // Lines 9-10. A round whose candidates R1 dropped above still prunes
    // (nothing), so it counts as a prune run exactly as before.
    if (round.empty() && r1_dropped.groups == 0) break;

    // Line 11: prune spurious pattern groups.
    round = PruneIndividual(grid, std::move(round), config.coverage, config.rules,
                            r1_dropped);
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
