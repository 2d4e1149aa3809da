#include "eval/batch_runner.h"

#include <cmath>
#include <vector>

#include "core/aggrecol.h"
#include "datagen/corpus.h"
#include "datagen/file_generator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

// Sanitizer instrumentation slows the detection pipeline by up to an order
// of magnitude, so deadline margins tuned for plain builds flip outcomes:
// an ordinary small file misses a 2-second per-file deadline under TSan.
// Scale the margins; the huge file misses its deadline at any slack.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define AGGRECOL_UNDER_SANITIZER 1
#endif
#endif
#if !defined(AGGRECOL_UNDER_SANITIZER) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define AGGRECOL_UNDER_SANITIZER 1
#endif

namespace aggrecol::eval {
namespace {

#if defined(AGGRECOL_UNDER_SANITIZER)
constexpr double kTimingSlack = 10.0;
#else
constexpr double kTimingSlack = 1.0;
#endif

std::vector<AnnotatedFile> SmallCorpus(int count, uint64_t seed) {
  return datagen::GenerateSmallCorpus(count, seed);
}

// A file expensive enough that it cannot finish within the deadlines used
// below even with sanitizer slack applied. Detection cost grows somewhat
// faster than linearly in rows: at threads=2 in a RelWithDebInfo build on a
// 4-core VM, 10k rows finish in about 3.8 s, inside the 4 s deadline, and
// 60k rows need 24-27 s, six times the deadline. The pipeline's
// cancellation checks fire long before the full run would complete, so tests
// still end at the deadline, not after a full detection.
AnnotatedFile HugeFile() {
  datagen::GeneratorProfile profile;
  profile.p_no_aggregation = 0.0;
  profile.p_tiny_file = 0.0;
  profile.p_big_file = 1.0;
  profile.big_file_rows = 60000;
  return datagen::GenerateFile(profile, 4242, "huge.csv");
}

TEST(BatchRunner, MatchesSequentialDetectionPerFile) {
  const auto files = SmallCorpus(12, 99);

  // Reference: plain sequential Detect per file.
  const core::AggreCol detector{core::AggreColConfig{}};
  std::vector<core::DetectionResult> expected;
  for (const auto& file : files) expected.push_back(detector.Detect(file.grid));

  BatchOptions options;
  options.threads = 2;
  options.max_in_flight = 3;
  const auto report = BatchRunner(options).Run(files);

  ASSERT_EQ(report.files.size(), files.size());
  EXPECT_EQ(report.ok, static_cast<int>(files.size()));
  EXPECT_EQ(report.timed_out, 0);
  EXPECT_EQ(report.failed, 0);
  for (size_t f = 0; f < files.size(); ++f) {
    EXPECT_EQ(report.files[f].name, files[f].name);  // input order preserved
    EXPECT_EQ(report.files[f].result.aggregations, expected[f].aggregations)
        << files[f].name;
  }
}

TEST(BatchRunner, AggregatesEqualPerFileSums) {
  const auto files = SmallCorpus(10, 7);
  BatchOptions options;
  options.threads = 2;
  const auto report = BatchRunner(options).Run(files);

  size_t aggregations = 0;
  double individual = 0, collective = 0, supplemental = 0;
  std::vector<Scores> scores;
  for (const auto& file : report.files) {
    aggregations += file.result.aggregations.size();
    individual += file.result.seconds_individual;
    collective += file.result.seconds_collective;
    supplemental += file.result.seconds_supplemental;
    scores.push_back(file.scores);
  }
  EXPECT_EQ(report.total_aggregations, aggregations);
  EXPECT_DOUBLE_EQ(report.seconds_individual, individual);
  EXPECT_DOUBLE_EQ(report.seconds_collective, collective);
  EXPECT_DOUBLE_EQ(report.seconds_supplemental, supplemental);

  const Scores expected = Accumulate(scores);
  EXPECT_EQ(report.scores.correct, expected.correct);
  EXPECT_EQ(report.scores.incorrect, expected.incorrect);
  EXPECT_EQ(report.scores.missed, expected.missed);
  EXPECT_DOUBLE_EQ(report.scores.precision, expected.precision);
  EXPECT_DOUBLE_EQ(report.scores.recall, expected.recall);
}

TEST(BatchRunner, BoundedInFlightWindowRespected) {
  const auto files = SmallCorpus(12, 321);
  BatchOptions options;
  options.threads = 4;
  options.max_in_flight = 2;
  const auto report = BatchRunner(options).Run(files);

  EXPECT_EQ(report.ok, 12);
  EXPECT_GE(report.max_in_flight_observed, 1);
  EXPECT_LE(report.max_in_flight_observed, 2);
}

TEST(BatchRunner, SequentialRunnerHasSingleFileInFlight) {
  const auto files = SmallCorpus(5, 11);
  BatchOptions options;
  options.threads = 1;
  options.max_in_flight = 8;
  BatchRunner runner(options);
  EXPECT_EQ(runner.pool(), nullptr);
  const auto report = runner.Run(files);
  EXPECT_EQ(report.ok, 5);
  EXPECT_EQ(report.max_in_flight_observed, 1);
}

TEST(BatchRunner, SlowFileTimesOutWithoutStallingTheBatch) {
  auto files = SmallCorpus(6, 55);
  files.insert(files.begin() + 2, HugeFile());

  BatchOptions options;
  options.threads = 2;
  options.max_in_flight = 2;
  // Wide margins on both sides so CPU contention from parallel test runners
  // cannot flip an outcome: small files need tens of milliseconds (a couple
  // of seconds when a loaded single-core box timeshares them against the
  // huge file), the huge file well over ten seconds.
  options.file_timeout_seconds = 4.0 * kTimingSlack;
  const auto report = BatchRunner(options).Run(files);

  ASSERT_EQ(report.files.size(), 7u);
  EXPECT_EQ(report.files[2].name, "huge.csv");
  EXPECT_EQ(report.files[2].outcome, FileOutcome::kTimedOut);
  EXPECT_TRUE(report.files[2].result.aggregations.empty());
  EXPECT_EQ(report.timed_out, 1);
  EXPECT_EQ(report.ok, 6);
  for (size_t f = 0; f < report.files.size(); ++f) {
    if (f == 2) continue;
    EXPECT_EQ(report.files[f].outcome, FileOutcome::kOk) << report.files[f].name;
  }
  // The batch finished instead of hanging on the expensive file: the whole
  // run is bounded way below what the huge file alone would need.
  EXPECT_LT(report.seconds_wall, 60.0 * kTimingSlack);
  EXPECT_STREQ(ToString(FileOutcome::kTimedOut), "timed_out");
}

TEST(BatchRunner, TimeoutAppliesInSequentialModeToo) {
  std::vector<AnnotatedFile> files = {HugeFile()};
  BatchOptions options;
  options.threads = 1;
  options.file_timeout_seconds = 0.2;
  const auto report = BatchRunner(options).Run(files);
  EXPECT_EQ(report.timed_out, 1);
  EXPECT_EQ(report.files[0].outcome, FileOutcome::kTimedOut);
}

TEST(BatchRunner, ZeroTimeoutMeansNoDeadline) {
  const auto files = SmallCorpus(3, 8);
  BatchOptions options;
  options.threads = 2;
  options.file_timeout_seconds = 0.0;
  const auto report = BatchRunner(options).Run(files);
  EXPECT_EQ(report.ok, 3);
  EXPECT_EQ(report.timed_out, 0);
}

TEST(BatchRunner, SuccessRateExcludesTimedOutFromDenominator) {
  // Regression: a timed-out file is a scheduling outcome, not a detection
  // failure, so it must not appear in the success-rate denominator.
  BatchReport report;
  report.ok = 6;
  report.timed_out = 2;
  report.failed = 0;
  EXPECT_DOUBLE_EQ(SuccessRate(report), 1.0);  // not 6/8

  report.failed = 2;
  EXPECT_DOUBLE_EQ(SuccessRate(report), 0.75);  // 6/8 decided, not 6/10

  // Vacuously perfect when nothing was decided (even if everything timed out).
  report.ok = 0;
  report.failed = 0;
  EXPECT_DOUBLE_EQ(SuccessRate(report), 1.0);
}

TEST(BatchRunner, SuccessRateOfLiveRunWithTimeout) {
  auto files = SmallCorpus(4, 17);
  files.push_back(HugeFile());
  BatchOptions options;
  options.threads = 2;
  options.file_timeout_seconds = 4.0 * kTimingSlack;
  const auto report = BatchRunner(options).Run(files);
  ASSERT_EQ(report.ok, 4);
  ASSERT_EQ(report.timed_out, 1);
  ASSERT_EQ(report.failed, 0);
  EXPECT_DOUBLE_EQ(SuccessRate(report), 1.0);
}

TEST(BatchRunner, EmitsSchedulingMetrics) {
  if (!obs::CompiledIn()) GTEST_SKIP() << "built with AGGRECOL_OBS=OFF";
  const auto files = SmallCorpus(6, 23);
  BatchOptions options;
  options.threads = 2;
  options.max_in_flight = 3;

  obs::ScopedMetrics scoped;
  const auto report = BatchRunner(options).Run(files);
  const auto snapshot = obs::Registry::Instance().Snapshot();

  EXPECT_EQ(snapshot.counter("batch.files.submitted"), files.size());
  EXPECT_EQ(snapshot.counter("batch.files.ok"),
            static_cast<uint64_t>(report.ok));
  EXPECT_EQ(snapshot.counter("batch.files.timed_out"), 0u);
  EXPECT_EQ(snapshot.counter("batch.files.failed"), 0u);

  int64_t in_flight_max = -1, window = -1, threads = -1;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "batch.in_flight.max") in_flight_max = value;
    if (name == "batch.window") window = value;
    if (name == "batch.threads") threads = value;
  }
  EXPECT_EQ(in_flight_max, report.max_in_flight_observed);
  EXPECT_EQ(window, 3);
  EXPECT_EQ(threads, 2);

  bool saw_file_seconds = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "batch.file.seconds") {
      saw_file_seconds = true;
      EXPECT_EQ(histogram.count, files.size());
    }
  }
  EXPECT_TRUE(saw_file_seconds);
}

}  // namespace
}  // namespace aggrecol::eval
