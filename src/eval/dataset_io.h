#ifndef AGGRECOL_EVAL_DATASET_IO_H_
#define AGGRECOL_EVAL_DATASET_IO_H_

#include <optional>
#include <string>
#include <vector>

#include "eval/annotations.h"

namespace aggrecol::eval {

/// Writes `file` as a `<stem>.csv` / `<stem>.annotations` pair inside
/// `directory` (the on-disk corpus layout produced by `aggrecol generate`).
/// Returns false on I/O failure.
bool SaveAnnotatedFile(const std::string& directory, const std::string& stem,
                       const AnnotatedFile& file);

/// Loads one annotated file from a `.csv` path and its `.annotations`
/// sidecar. The CSV dialect is sniffed; the number format is not elected
/// here (AggreCol::Detect elects it once per file), so `format` keeps its
/// default. A missing sidecar yields an empty ground truth (detection-only
/// use); a malformed sidecar yields nullopt.
std::optional<AnnotatedFile> LoadAnnotatedFile(const std::string& csv_path,
                                               const std::string& annotations_path);

/// Loads every `<stem>.csv` in `directory` (non-recursive), pairing each with
/// `<stem>.annotations` when present. Files are ordered by name. Returns
/// nullopt when the directory cannot be read or any sidecar is malformed.
std::optional<std::vector<AnnotatedFile>> LoadCorpusDirectory(
    const std::string& directory);

}  // namespace aggrecol::eval

#endif  // AGGRECOL_EVAL_DATASET_IO_H_
