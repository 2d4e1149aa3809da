#include "eval/dataset_io.h"

#include <filesystem>
#include <sstream>

#include "cli/arg_parser.h"
#include "cli/commands.h"
#include "datagen/file_generator.h"
#include "gtest/gtest.h"
#include "util/file_io.h"

namespace aggrecol::eval {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "aggrecol_dataset_io_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(DatasetIoTest, SaveLoadRoundTrip) {
  const auto file = datagen::GenerateFile(datagen::GeneratorProfile{}, 17, "x.csv");
  ASSERT_TRUE(SaveAnnotatedFile(dir_.string(), "sample", file));

  const auto loaded = LoadAnnotatedFile((dir_ / "sample.csv").string(),
                                        (dir_ / "sample.annotations").string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->grid, file.grid);
  ASSERT_EQ(loaded->annotations.size(), file.annotations.size());
  for (size_t i = 0; i < file.annotations.size(); ++i) {
    EXPECT_EQ(loaded->annotations[i], file.annotations[i]);
  }
}

TEST_F(DatasetIoTest, CompositesRoundTripThroughSidecar) {
  datagen::GeneratorProfile profile;
  profile.p_no_aggregation = 0.0;
  profile.p_composite = 1.0;
  const auto file = datagen::GenerateFile(profile, 321, "c.csv");
  ASSERT_FALSE(file.composites.empty());
  ASSERT_TRUE(SaveAnnotatedFile(dir_.string(), "composite", file));

  const auto loaded = LoadAnnotatedFile((dir_ / "composite.csv").string(),
                                        (dir_ / "composite.annotations").string());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->composites.size(), file.composites.size());
  for (size_t i = 0; i < file.composites.size(); ++i) {
    EXPECT_EQ(loaded->composites[i], file.composites[i]);
  }
  // And the plain annotations survive alongside.
  EXPECT_EQ(loaded->annotations.size(), file.annotations.size());
}

TEST_F(DatasetIoTest, MissingSidecarYieldsEmptyTruth) {
  util::WriteFile((dir_ / "plain.csv").string(), "a,b\n1,2\n");
  const auto loaded = LoadAnnotatedFile((dir_ / "plain.csv").string(),
                                        (dir_ / "plain.annotations").string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->annotations.empty());
  EXPECT_EQ(loaded->grid.rows(), 2);
}

TEST_F(DatasetIoTest, MalformedSidecarFails) {
  util::WriteFile((dir_ / "bad.csv").string(), "a,b\n1,2\n");
  util::WriteFile((dir_ / "bad.annotations").string(), "not,a,valid,annotation\n");
  EXPECT_FALSE(LoadAnnotatedFile((dir_ / "bad.csv").string(),
                                 (dir_ / "bad.annotations").string())
                   .has_value());
}

TEST_F(DatasetIoTest, MissingCsvFails) {
  EXPECT_FALSE(
      LoadAnnotatedFile((dir_ / "none.csv").string(), "").has_value());
}

TEST_F(DatasetIoTest, LoadCorpusDirectory) {
  for (int i = 0; i < 3; ++i) {
    const auto file = datagen::GenerateFile(datagen::GeneratorProfile{}, 100 + i,
                                            "f" + std::to_string(i));
    ASSERT_TRUE(SaveAnnotatedFile(dir_.string(), "f" + std::to_string(i), file));
  }
  // A non-CSV file is ignored.
  util::WriteFile((dir_ / "README.txt").string(), "not a table");

  const auto corpus = LoadCorpusDirectory(dir_.string());
  ASSERT_TRUE(corpus.has_value());
  EXPECT_EQ(corpus->size(), 3u);
  // Ordered by name.
  EXPECT_NE((*corpus)[0].name.find("f0.csv"), std::string::npos);
  EXPECT_NE((*corpus)[2].name.find("f2.csv"), std::string::npos);
}

TEST_F(DatasetIoTest, EmptyDirectoryLoadsEmptyCorpus) {
  const auto corpus = LoadCorpusDirectory(dir_.string());
  ASSERT_TRUE(corpus.has_value());
  EXPECT_TRUE(corpus->empty());
}

TEST_F(DatasetIoTest, BatchCommandOverDirectory) {
  for (int i = 0; i < 2; ++i) {
    const auto file = datagen::GenerateFile(datagen::GeneratorProfile{}, 55 + i,
                                            "g" + std::to_string(i));
    ASSERT_TRUE(SaveAnnotatedFile(dir_.string(), "g" + std::to_string(i), file));
  }
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::RunBatch(
      cli::ArgParser::Parse({"batch", dir_.string(), "--threads=1", "--quiet"}),
      out, err);
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("files with precision > 0.95"), std::string::npos);
  EXPECT_NE(out.str().find("2 files"), std::string::npos);
}

}  // namespace
}  // namespace aggrecol::eval
