#include "eval/dataset_io.h"

#include <algorithm>
#include <filesystem>

#include "csv/parser.h"
#include "csv/sniffer.h"
#include "csv/writer.h"
#include "util/file_io.h"

namespace aggrecol::eval {

bool SaveAnnotatedFile(const std::string& directory, const std::string& stem,
                       const AnnotatedFile& file) {
  const std::string base = directory + "/" + stem;
  const csv::Dialect dialect{',', '"'};
  return util::WriteFile(base + ".csv", csv::WriteGrid(file.grid, dialect)) &&
         util::WriteFile(base + ".annotations",
                         SerializeAnnotations(file.annotations) +
                             SerializeComposites(file.composites));
}

std::optional<AnnotatedFile> LoadAnnotatedFile(const std::string& csv_path,
                                               const std::string& annotations_path) {
  auto mapped = csv::MappedFile::Open(csv_path);
  if (!mapped.has_value()) return std::nullopt;

  AnnotatedFile file;
  file.name = csv_path;
  const auto sniffed = csv::SniffDialect(mapped->view());
  file.grid = csv::ParseGrid(std::move(*mapped), sniffed.dialect,
                             csv::ParseHints{sniffed.modal_row_width});

  if (const auto sidecar = util::ReadFile(annotations_path); sidecar.has_value()) {
    auto annotations = ParseAnnotations(*sidecar);
    auto composites = ParseComposites(*sidecar);
    if (!annotations.has_value() || !composites.has_value()) {
      return std::nullopt;  // malformed sidecar
    }
    file.annotations = std::move(*annotations);
    file.composites = std::move(*composites);
  }
  return file;
}

std::optional<std::vector<AnnotatedFile>> LoadCorpusDirectory(
    const std::string& directory) {
  std::error_code error;
  std::vector<std::filesystem::path> csv_paths;
  for (const auto& entry : std::filesystem::directory_iterator(directory, error)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      csv_paths.push_back(entry.path());
    }
  }
  if (error) return std::nullopt;
  std::sort(csv_paths.begin(), csv_paths.end());

  std::vector<AnnotatedFile> files;
  files.reserve(csv_paths.size());
  for (const auto& csv_path : csv_paths) {
    std::filesystem::path sidecar = csv_path;
    sidecar.replace_extension(".annotations");
    auto file = LoadAnnotatedFile(csv_path.string(), sidecar.string());
    if (!file.has_value()) return std::nullopt;
    files.push_back(std::move(*file));
  }
  return files;
}

}  // namespace aggrecol::eval
