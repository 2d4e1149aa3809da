#include "eval/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace aggrecol::eval {

const char* ToString(FileOutcome outcome) {
  switch (outcome) {
    case FileOutcome::kOk:
      return "ok";
    case FileOutcome::kTimedOut:
      return "timed_out";
    case FileOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

BatchRunner::BatchRunner(BatchOptions options) : options_(std::move(options)) {
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

BatchRunner::~BatchRunner() = default;

BatchFileReport BatchRunner::ProcessOne(const AnnotatedFile& file,
                                        std::atomic<int>* in_flight,
                                        std::atomic<int>* max_in_flight) {
  const int now_running = in_flight->fetch_add(1, std::memory_order_relaxed) + 1;
  int seen = max_in_flight->load(std::memory_order_relaxed);
  while (seen < now_running &&
         !max_in_flight->compare_exchange_weak(seen, now_running,
                                               std::memory_order_relaxed)) {
  }
  obs::GaugeMax("batch.in_flight.max", now_running);

  BatchFileReport report;
  report.name = file.name;
  util::Stopwatch stopwatch;

  core::AggreColConfig config = options_.config;
  config.pool = pool_.get();
  config.threads = 1;  // never let a file spin up a private pool
  if (options_.file_timeout_seconds > 0.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.file_timeout_seconds));
    config.cancel = config.cancel.WithDeadline(deadline);
  }

  try {
    const core::AggreCol detector(config);
    report.result = detector.Detect(file.grid);
    report.scores = Score(report.result.aggregations, file.annotations);
    report.outcome = FileOutcome::kOk;
  } catch (const util::CancelledError&) {
    report.outcome = FileOutcome::kTimedOut;
  } catch (const std::exception& e) {
    report.outcome = FileOutcome::kFailed;
    report.error = e.what();
  }
  report.seconds = stopwatch.ElapsedSeconds();
  if (obs::Registry::enabled()) {
    obs::Observe("batch.file.seconds", report.seconds);
    if (options_.file_timeout_seconds > 0.0 &&
        report.outcome != FileOutcome::kTimedOut) {
      // Slack = deadline headroom the file left unused; near-zero slack means
      // the per-file timeout is about to start biting.
      obs::Observe("batch.deadline.slack_seconds",
                   std::max(0.0, options_.file_timeout_seconds - report.seconds));
    }
  }

  in_flight->fetch_sub(1, std::memory_order_relaxed);
  return report;
}

BatchReport BatchRunner::Run(const std::vector<AnnotatedFile>& files) {
  obs::ScopedSpan span("batch.run");
  if (obs::Registry::enabled()) {
    obs::Count("batch.files.submitted", files.size());
    obs::GaugeSet("batch.threads", options_.threads);
    obs::GaugeSet("batch.window", std::max(1, options_.max_in_flight));
  }

  BatchReport report;
  report.files.resize(files.size());
  util::Stopwatch stopwatch;

  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};

  if (pool_ == nullptr) {
    for (size_t i = 0; i < files.size(); ++i) {
      report.files[i] = ProcessOne(files[i], &in_flight, &max_in_flight);
    }
  } else {
    // Sliding window: keep at most max_in_flight file tasks outstanding,
    // retiring the oldest before admitting the next. The caller thread only
    // coordinates; detection runs on the pool (file tasks spawn their inner
    // per-function/per-row tasks on the same pool and help execute them
    // while waiting, so the window also bounds peak memory). Each file task
    // is its own task group: a file's wait runs only that file's tasks, so a
    // slow file cannot make its neighbour miss a deadline.
    const size_t window =
        static_cast<size_t>(std::max(1, options_.max_in_flight));
    std::deque<std::pair<size_t, util::Future<BatchFileReport>>> outstanding;
    size_t next = 0;
    while (next < files.size() || !outstanding.empty()) {
      while (next < files.size() && outstanding.size() < window) {
        const size_t index = next++;
        const AnnotatedFile* file = &files[index];
        outstanding.emplace_back(
            index, pool_->Submit([this, file, &in_flight, &max_in_flight] {
              return ProcessOne(*file, &in_flight, &max_in_flight);
            }));
      }
      auto [index, future] = std::move(outstanding.front());
      outstanding.pop_front();
      report.files[index] = future.Get();
    }
  }

  report.seconds_wall = stopwatch.ElapsedSeconds();
  report.max_in_flight_observed = max_in_flight.load(std::memory_order_relaxed);

  std::vector<Scores> ok_scores;
  for (const auto& file : report.files) {
    switch (file.outcome) {
      case FileOutcome::kOk:
        ++report.ok;
        report.seconds_individual += file.result.seconds_individual;
        report.seconds_collective += file.result.seconds_collective;
        report.seconds_supplemental += file.result.seconds_supplemental;
        report.total_aggregations += file.result.aggregations.size();
        ok_scores.push_back(file.scores);
        break;
      case FileOutcome::kTimedOut:
        ++report.timed_out;
        break;
      case FileOutcome::kFailed:
        ++report.failed;
        break;
    }
  }
  report.scores = Accumulate(ok_scores);
  if (obs::Registry::enabled()) {
    obs::Count("batch.files.ok", report.ok);
    obs::Count("batch.files.timed_out", report.timed_out);
    obs::Count("batch.files.failed", report.failed);
  }
  return report;
}

double SuccessRate(const BatchReport& report) {
  // Timed-out files are excluded from the denominator: a deadline trip says
  // the file was expensive, not that detection was wrong, and counting it as
  // a failure makes the same corpus score differently under different
  // --timeout settings. Vacuously 1.0 when nothing completed either way,
  // matching the Scores convention.
  const int decided = report.ok + report.failed;
  if (decided == 0) return 1.0;
  return static_cast<double>(report.ok) / decided;
}

}  // namespace aggrecol::eval
