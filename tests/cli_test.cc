#include <cstdio>
#include <filesystem>
#include <sstream>

#include "cli/arg_parser.h"
#include "cli/commands.h"
#include "eval/annotations.h"
#include "gtest/gtest.h"
#include "util/file_io.h"

namespace aggrecol::cli {
namespace {

TEST(ArgParser, PositionalsAndOptions) {
  const auto args = ArgParser::Parse(
      {"detect", "file.csv", "--coverage=0.5", "--window", "7", "--no-empty-as-zero"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "detect");
  EXPECT_EQ(args.positionals()[1], "file.csv");
  EXPECT_DOUBLE_EQ(args.GetDouble("coverage", 0.7), 0.5);
  EXPECT_EQ(args.GetInt("window", 10), 7);
  EXPECT_TRUE(args.Has("no-empty-as-zero"));
  EXPECT_FALSE(args.GetString("no-empty-as-zero").has_value());
}

TEST(ArgParser, SwitchBeforeOption) {
  const auto args = ArgParser::Parse({"--flag", "--key=value"});
  EXPECT_TRUE(args.Has("flag"));
  EXPECT_EQ(args.GetString("key").value_or(""), "value");
}

TEST(ArgParser, ListsAndDefaults) {
  const auto args = ArgParser::Parse({"--functions=sum,division,"});
  const auto list = args.GetList("functions");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], "sum");
  EXPECT_EQ(list[1], "division");
  EXPECT_TRUE(args.GetList("absent").empty());
  EXPECT_DOUBLE_EQ(args.GetDouble("absent", 1.5), 1.5);
}

TEST(ArgParser, MalformedNumbersFallBack) {
  const auto args = ArgParser::Parse({"--coverage=abc", "--window=7x"});
  EXPECT_DOUBLE_EQ(args.GetDouble("coverage", 0.7), 0.7);
  EXPECT_EQ(args.GetInt("window", 10), 10);
}

TEST(ArgParser, UnknownOptions) {
  const auto args = ArgParser::Parse({"--good=1", "--typo=2"});
  const auto unknown = args.UnknownOptions({"good"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ConfigFromArgs, UniformErrorLevel) {
  core::AggreColConfig config;
  std::ostringstream err;
  ASSERT_TRUE(ConfigFromArgs(ArgParser::Parse({"--error-level=0.02"}), &config, err));
  for (auto function : core::kAllFunctions) {
    EXPECT_DOUBLE_EQ(config.error_level(function), 0.02);
  }
}

TEST(ConfigFromArgs, PerFunctionErrorLevels) {
  core::AggreColConfig config;
  std::ostringstream err;
  ASSERT_TRUE(ConfigFromArgs(
      ArgParser::Parse({"--error-level=sum:0.005,relative-change:0.07"}), &config, err));
  EXPECT_DOUBLE_EQ(config.error_level(core::AggregationFunction::kSum), 0.005);
  EXPECT_DOUBLE_EQ(config.error_level(core::AggregationFunction::kRelativeChange), 0.07);
  // Others keep defaults.
  EXPECT_DOUBLE_EQ(config.error_level(core::AggregationFunction::kDivision), 0.03);
}

TEST(ConfigFromArgs, RejectsUnknownFunction) {
  core::AggreColConfig config;
  std::ostringstream err;
  EXPECT_FALSE(
      ConfigFromArgs(ArgParser::Parse({"--functions=sum,median"}), &config, err));
  EXPECT_NE(err.str().find("median"), std::string::npos);
}

TEST(ConfigFromArgs, StagesAndAxis) {
  core::AggreColConfig config;
  std::ostringstream err;
  ASSERT_TRUE(ConfigFromArgs(ArgParser::Parse({"--stages=i", "--axis=rows"}),
                             &config, err));
  EXPECT_FALSE(config.run_collective);
  EXPECT_FALSE(config.run_supplemental);
  EXPECT_TRUE(config.detect_rows);
  EXPECT_FALSE(config.detect_columns);

  core::AggreColConfig bad;
  EXPECT_FALSE(ConfigFromArgs(ArgParser::Parse({"--stages=xyz"}), &bad, err));
  EXPECT_FALSE(ConfigFromArgs(ArgParser::Parse({"--axis=diagonal"}), &bad, err));
}

class CliEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "aggrecol_cli_test";
    std::filesystem::create_directories(dir_);
    csv_path_ = (dir_ / "table.csv").string();
    util::WriteFile(csv_path_,
                    "Item,A,B,Sum\n"
                    "x,1,4,5\n"
                    "y,2,5,7\n"
                    "z,3,6,9\n");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int Run(const std::vector<std::string>& args, std::string* out_text = nullptr,
          std::string* err_text = nullptr) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = RunCli(args, out, err);
    if (out_text != nullptr) *out_text = out.str();
    if (err_text != nullptr) *err_text = err.str();
    return code;
  }

  std::filesystem::path dir_;
  std::string csv_path_;
};

TEST_F(CliEndToEnd, DetectText) {
  std::string out;
  ASSERT_EQ(Run({"detect", csv_path_}, &out), 0);
  // The relation may surface as sum or as its difference mirror form.
  EXPECT_TRUE(out.find("sum") != std::string::npos ||
              out.find("difference") != std::string::npos)
      << out;
  EXPECT_NE(out.find("aggregations:"), std::string::npos);
  EXPECT_EQ(out.find("aggregations: 0"), std::string::npos);
}

TEST_F(CliEndToEnd, DetectAnnotationsRoundTrip) {
  std::string out;
  ASSERT_EQ(Run({"detect", csv_path_, "--output=annotations", "--error-level=0"},
                &out),
            0);
  const auto parsed = eval::ParseAnnotations(out);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->empty());
}

TEST_F(CliEndToEnd, DetectGridRendering) {
  std::string out;
  ASSERT_EQ(Run({"detect", csv_path_, "--output=grid"}, &out), 0);
  // At least one cell is bracketed as an aggregate and the legend prints.
  EXPECT_NE(out.find("["), std::string::npos);
  EXPECT_NE(out.find("aggregation(s); [cell] = aggregate"), std::string::npos);
}

TEST_F(CliEndToEnd, EvaluateAgainstDetections) {
  // Detections evaluated against themselves must be perfect.
  std::string annotations;
  ASSERT_EQ(Run({"detect", csv_path_, "--output=annotations"}, &annotations), 0);
  const std::string truth_path = (dir_ / "truth.annotations").string();
  ASSERT_TRUE(util::WriteFile(truth_path, annotations));
  std::string out;
  ASSERT_EQ(Run({"evaluate", csv_path_, truth_path}, &out), 0);
  EXPECT_NE(out.find("1.000"), std::string::npos);
}

TEST_F(CliEndToEnd, Sniff) {
  std::string out;
  ASSERT_EQ(Run({"sniff", csv_path_}, &out), 0);
  EXPECT_NE(out.find("delimiter=','"), std::string::npos);
  EXPECT_NE(out.find("4 rows x 4 columns"), std::string::npos);
}

TEST_F(CliEndToEnd, GenerateWritesCorpus) {
  const std::string out_dir = (dir_ / "corpus").string();
  std::filesystem::create_directories(out_dir);
  std::string out;
  ASSERT_EQ(Run({"generate", "--out=" + out_dir, "--count=2", "--seed=5"}, &out), 0);
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/file_0.csv"));
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/file_1.annotations"));

  // The generated pair must evaluate cleanly end to end.
  std::string eval_out;
  ASSERT_EQ(Run({"evaluate", out_dir + "/file_0.csv", out_dir + "/file_0.annotations"},
                &eval_out),
            0);
  EXPECT_NE(eval_out.find("overall"), std::string::npos);
}

TEST_F(CliEndToEnd, GenerateMessyWritesAdversarialCorpus) {
  const std::string out_dir = (dir_ / "messy").string();
  std::filesystem::create_directories(out_dir);
  std::string out;
  ASSERT_EQ(Run({"generate", "--out=" + out_dir, "--messy", "--per-category=1",
                 "--seed=7"},
                &out),
            0);
  EXPECT_NE(out.find("6 messy file pairs"), std::string::npos) << out;
  // One file pair per category, named after the category.
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/messy_ambiguous-dialect_0.csv"));
  EXPECT_TRUE(
      std::filesystem::exists(out_dir + "/messy_multi-table_0.annotations"));

  // The messy pairs run through the sniff-parse-detect batch path, whose
  // summary carries the file-level rows.
  std::string batch_out;
  ASSERT_EQ(Run({"batch", out_dir, "--threads=1", "--split-tables"}, &batch_out),
            0);
  EXPECT_NE(batch_out.find("6 files"), std::string::npos) << batch_out;
  EXPECT_NE(batch_out.find("files with precision > 0.95"), std::string::npos)
      << batch_out;
  EXPECT_NE(batch_out.find("files with recall > 0.95"), std::string::npos)
      << batch_out;
}

TEST_F(CliEndToEnd, ErrorsAndExitCodes) {
  std::string err;
  EXPECT_EQ(Run({"detect"}, nullptr, &err), 2);
  EXPECT_EQ(Run({"detect", "/nonexistent/x.csv"}, nullptr, &err), 1);
  EXPECT_EQ(Run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_EQ(Run({}, nullptr, &err), 2);
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_EQ(Run({"detect", csv_path_, "--coverge=0.5"}, nullptr, &err), 2);
  EXPECT_NE(err.find("coverge"), std::string::npos);
}

}  // namespace
}  // namespace aggrecol::cli
