#ifndef AGGRECOL_PIPEBENCH_REPLAY_H_
#define AGGRECOL_PIPEBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "core/aggregation.h"

namespace pipebench {

/// Layers of the traced replay, in the order their self times are reported.
/// Each entry is the metric name without its `_s` suffix.
const std::vector<std::string>& LayerNames();

struct ReplayResult {
  /// Self seconds per layer, indexed like LayerNames().
  std::vector<double> layer_seconds;

  /// Final aggregations of the replayed pipeline.
  std::vector<aggrecol::core::Aggregation> aggregations;

  /// False when the file or its sidecar could not be read or parsed.
  bool loaded = false;
};

/// Replays what `eval::LoadAnnotatedFile` and then `eval::BatchRunner` do for
/// one file with the default configuration and no pool — map, sniff, parse,
/// election, sidecar, normalization, stage 1 per (axis, function), the merges
/// of `core::AggreCol::Detect`, stage 2, stage 3 per axis and scoring —
/// calling the library's public functions one by one and timing each call.
/// The laps are taken back to back on one clock, so the layer times tile the
/// replay.
ReplayResult ReplayFile(const std::string& csv_path,
                        const std::string& annotations_path);

/// True when both lists hold the same aggregations in the same order with
/// bit-identical observed errors.
bool BitIdentical(const std::vector<aggrecol::core::Aggregation>& a,
                  const std::vector<aggrecol::core::Aggregation>& b);

}  // namespace pipebench

#endif  // AGGRECOL_PIPEBENCH_REPLAY_H_
