#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace aggrecol::util {
namespace {

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { return 7 * 6; });
  EXPECT_EQ(future.Get(), 42);
}

TEST(ThreadPool, ManySubmissionsAllRun) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<Future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { return ++counter; }));
  }
  for (auto& future : futures) future.Get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ClampsToOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
  EXPECT_EQ(pool.Submit([] { return 1; }).Get(), 1);
}

TEST(ThreadPool, NestedSubmissionFromInsideTask) {
  ThreadPool pool(2);
  auto future = pool.Submit([&pool] {
    std::vector<Future<int>> inner;
    for (int i = 0; i < 8; ++i) {
      inner.push_back(pool.Submit([i] { return i * i; }));
    }
    int sum = 0;
    for (auto& f : inner) sum += f.Get();
    return sum;
  });
  EXPECT_EQ(future.Get(), 0 + 1 + 4 + 9 + 16 + 25 + 36 + 49);
}

TEST(ThreadPool, NestedWaitDoesNotDeadlockOnSingleWorker) {
  // The hard case: one worker submits subtasks and waits on them. The wait
  // must execute queued tasks instead of blocking forever.
  ThreadPool pool(1);
  auto future = pool.Submit([&pool] {
    auto a = pool.Submit([] { return 1; });
    auto b = pool.Submit([&pool] {
      // Two levels deep, still on the same single worker.
      return pool.Submit([] { return 2; }).Get();
    });
    return a.Get() + b.Get();
  });
  EXPECT_EQ(future.Get(), 3);
}

TEST(ThreadPool, WaiterRunsOnlyItsOwnGroupsTasks) {
  // A task waiting on its own subtasks must not pick up a task that another
  // submitter queued, however long that task runs: in a batch, a small
  // file's wait must not run a huge file's stage job and miss its own
  // deadline behind it. Every step is ordered by promises, not sleeps.
  ThreadPool pool(2);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();

  // Hold one worker with a foreign task until the end of the test.
  std::promise<void> holding;
  auto holder = pool.Submit([&holding, released] {
    holding.set_value();
    released.wait();
    return 0;
  });
  holding.get_future().wait();

  std::mutex mutex;
  std::condition_variable progress;
  bool parent_done = false;
  int foreign_started = 0;
  int foreign_started_before_parent_done = -1;

  // The parent runs on the other worker. It queues its subtask, lets the
  // outside queue one foreign task on each deque (so one lands behind the
  // subtask, where a LIFO pop of any task would take it first), then waits.
  std::promise<void> subtask_queued;
  std::promise<void> foreign_queued;
  auto parent = pool.Submit([&, queued = foreign_queued.get_future().share()] {
    auto subtask = pool.Submit([] { return 1; });
    subtask_queued.set_value();
    queued.wait();
    const int value = subtask.Get() + 1;
    {
      std::lock_guard<std::mutex> lock(mutex);
      parent_done = true;
      foreign_started_before_parent_done = foreign_started;
    }
    progress.notify_all();
    return value;
  });
  subtask_queued.get_future().wait();
  std::vector<Future<int>> foreign;
  for (int i = 0; i < pool.thread_count(); ++i) {
    foreign.push_back(pool.Submit([&, released] {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++foreign_started;
      }
      progress.notify_all();
      released.wait();
      return 0;
    }));
  }
  foreign_queued.set_value();

  {
    // The parent either finishes while every foreign task is still held, or
    // (the fault) its wait runs a foreign task, which then blocks inside it.
    std::unique_lock<std::mutex> lock(mutex);
    progress.wait(lock, [&] { return parent_done || foreign_started > 0; });
    EXPECT_TRUE(parent_done) << "the waiting parent ran a foreign task";
  }
  release.set_value();
  EXPECT_EQ(parent.Get(), 2);
  EXPECT_EQ(foreign_started_before_parent_done, 0);
  EXPECT_EQ(holder.Get(), 0);
  for (auto& future : foreign) EXPECT_EQ(future.Get(), 0);
}

TEST(ThreadPool, TaskWaitingOnExternalFutureHelpsItsGroupOnSingleWorker) {
  // A task waits on a future that the outside submitted, so of another
  // group, while that future's task sits queued behind it on the only
  // worker. The wait must run the waited future's group, or it deadlocks.
  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<Future<int>> handoff;
  auto waiter = pool.Submit([&started, external = handoff.get_future().share()] {
    started.set_value();
    Future<int> future = external.get();
    return future.Get() + 1;
  });
  started.get_future().wait();  // the worker is busy, so the next task queues
  handoff.set_value(pool.Submit([&pool] {
    // Its own subtask joins its group, so the helping waiter runs it too.
    return pool.Submit([] { return 20; }).Get() + 1;
  }));
  EXPECT_EQ(waiter.Get(), 22);
}

TEST(ThreadPool, CancellationObservedMidRun) {
  ThreadPool pool(2);
  CancellationSource source;
  std::atomic<bool> started{false};
  auto future = pool.Submit([token = source.token(), &started] {
    started = true;
    int spins = 0;
    while (!token.cancelled()) {
      ++spins;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return spins;
  });
  while (!started) std::this_thread::yield();
  source.RequestCancel();
  EXPECT_GE(future.Get(), 0);  // returned instead of spinning forever
  EXPECT_TRUE(source.cancel_requested());
}

TEST(ThreadPool, ThrowIfCancelledPropagatesThroughFuture) {
  ThreadPool pool(2);
  CancellationSource source;
  source.RequestCancel();
  auto future = pool.Submit([token = source.token()] {
    token.ThrowIfCancelled();
    return 1;
  });
  EXPECT_THROW(future.Get(), CancelledError);
}

TEST(ThreadPool, DeadlineTokenTrips) {
  const CancellationToken none;
  EXPECT_FALSE(none.cancelled());

  const auto expired =
      none.WithDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(expired.cancelled());
  EXPECT_THROW(expired.ThrowIfCancelled(), CancelledError);

  const auto future_deadline =
      none.WithDeadline(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(future_deadline.cancelled());

  // WithDeadline keeps the earlier deadline when chained.
  const auto rechained =
      expired.WithDeadline(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_TRUE(rechained.cancelled());
}

TEST(ThreadPool, ExceptionPropagationAndPoolSurvives) {
  ThreadPool pool(2);
  auto bad = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(
      {
        try {
          bad.Get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
  // The pool keeps working after a task threw.
  EXPECT_EQ(pool.Submit([] { return 5; }).Get(), 5);
}

TEST(ThreadPool, StressThousandsOfTinyTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 5000;
  std::atomic<long> sum{0};
  std::vector<Future<int>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([i, &sum] {
      sum += i;
      return i;
    }));
  }
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(futures[i].Get(), i);  // each future maps to its own task
  }
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto results =
      ParallelMap(&pool, 257, [](size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(results.size(), 257u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 3);
  }
}

TEST(ParallelMap, InlineWithoutPool) {
  const auto results = ParallelMap(nullptr, 4, [](size_t i) { return i + 1; });
  EXPECT_EQ(results, (std::vector<size_t>{1, 2, 3, 4}));
}

TEST(ParallelMap, RethrowsSmallestFailingIndexAfterAllFinish) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  try {
    ParallelMap(&pool, 20, [&completed](size_t i) -> int {
      if (i == 4 || i == 11) throw std::out_of_range("idx " + std::to_string(i));
      ++completed;
      return static_cast<int>(i);
    });
    FAIL() << "expected an exception";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "idx 4");
  }
  // Every non-throwing iteration ran to completion before the rethrow, so
  // captured references were never used after the caller unwound.
  EXPECT_EQ(completed.load(), 18);
}

TEST(ParallelMap, NestedInsidePoolTask) {
  ThreadPool pool(2);
  auto future = pool.Submit([&pool] {
    const auto inner = ParallelMap(&pool, 16, [](size_t i) { return i * 2; });
    return std::accumulate(inner.begin(), inner.end(), size_t{0});
  });
  EXPECT_EQ(future.Get(), size_t{240});
}

}  // namespace
}  // namespace aggrecol::util
