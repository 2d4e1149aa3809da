#ifndef AGGRECOL_UTIL_THREAD_POOL_H_
#define AGGRECOL_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace aggrecol::util {

/// Thrown by CancellationToken::ThrowIfCancelled when the token's source
/// requested cancellation or the token's deadline passed. Pipeline stages
/// let it propagate so a whole detection run unwinds cooperatively.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("operation cancelled") {}
};

/// A copyable view onto a cancellation request. Default-constructed tokens
/// are never cancelled. A token combines two triggers:
///   * its CancellationSource called RequestCancel(), and/or
///   * its own deadline (a steady_clock time point) passed.
/// Checking is cheap (one relaxed atomic load; the clock is only read when a
/// deadline is set), so tasks may poll per work item.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool cancelled() const {
    if (flag_ && flag_->load(std::memory_order_relaxed)) return true;
    return deadline_ != kNoDeadline && std::chrono::steady_clock::now() > deadline_;
  }

  void ThrowIfCancelled() const {
    if (cancelled()) throw CancelledError();
  }

  /// A copy of this token that additionally trips once `deadline` passes.
  CancellationToken WithDeadline(std::chrono::steady_clock::time_point deadline) const {
    CancellationToken token = *this;
    token.deadline_ = std::min(token.deadline_, deadline);
    return token;
  }

 private:
  friend class CancellationSource;
  static constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
  std::chrono::steady_clock::time_point deadline_ = kNoDeadline;
};

/// Owner side of a cancellation request; hand out token() to the work.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const { return flag_->load(std::memory_order_relaxed); }
  CancellationToken token() const { return CancellationToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

class ThreadPool;

namespace internal {

template <typename T>
struct FutureState {
  std::mutex mutex;
  std::condition_variable ready_cv;
  bool ready = false;
  std::optional<T> value;
  std::exception_ptr error;
};

}  // namespace internal

/// Handle to the result of a ThreadPool::Submit call. Get() blocks until the
/// task ran and returns its value or rethrows its exception. When Get() (or
/// Wait()) is called from inside a pool task, the calling worker executes
/// queued tasks of the waited task's own group while waiting (see
/// ThreadPool), so a task may submit subtasks to its own pool and wait on
/// them without deadlocking — even on a one-worker pool — while a long task
/// of another group never runs inside the wait.
template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  bool Ready() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->ready;
  }

  void Wait();

  T Get() {
    Wait();
    if (state_->error) std::rethrow_exception(state_->error);
    return std::move(*state_->value);
  }

 private:
  friend class ThreadPool;
  std::shared_ptr<internal::FutureState<T>> state_;
  ThreadPool* pool_ = nullptr;
  uint64_t group_ = 0;  // the task group of the task behind this future
};

/// A work-stealing thread pool. Each worker owns a deque: it pushes and pops
/// its own work LIFO (keeps nested subtasks hot in cache) and steals FIFO
/// from the other workers when its deque runs dry. External submissions are
/// distributed round-robin. The pool itself imposes no ordering — callers
/// that need determinism collect futures and merge results in a fixed order
/// (see ParallelMap).
///
/// Task groups scope the help a waiting worker gives. A task submitted from
/// outside the pool opens a new group; a task submitted from inside a pool
/// task joins the submitter's group, so a group is the whole tree of work
/// one outside submission spawned (in a batch: one file). A worker waiting
/// in Future::Wait runs only queued tasks of the waited future's group, so
/// it never picks up another group's long task and misses its own deadline
/// behind it. This cannot deadlock: the waited task and everything it waits
/// on belong to that group, and each such task is either queued, where the
/// waiter runs it itself, or already running on another worker. Idle
/// workers still run tasks of any group, so load keeps balancing.
///
/// Destruction drains every queued task before joining the workers, so no
/// submitted future is left forever-pending.
class ThreadPool {
 public:
  /// Spawns `thread_count` workers (clamped to at least 1).
  explicit ThreadPool(int thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// The pool the calling thread is a worker of, or nullptr.
  static ThreadPool* Current();

  /// Schedules `fn` and returns a future for its result. Safe to call from
  /// inside a pool task (the subtask goes onto the calling worker's own
  /// deque and joins the calling task's group; from outside the pool, `fn`
  /// opens a new group).
  template <typename F>
  auto Submit(F&& fn) -> Future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    static_assert(!std::is_void_v<R>,
                  "Submit a function returning a value (wrap side effects in "
                  "a sentinel return)");
    auto state = std::make_shared<internal::FutureState<R>>();
    const uint64_t group = GroupForSubmit();
    Push(group, [state, fn = std::forward<F>(fn)]() mutable {
      try {
        state->value.emplace(fn());
      } catch (...) {
        state->error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->ready = true;
      }
      state->ready_cv.notify_all();
    });
    Future<R> future;
    future.state_ = std::move(state);
    future.pool_ = this;
    future.group_ = group;
    return future;
  }

  /// Runs one queued task of any group on the calling thread if one is
  /// available. Idle workers call it to balance load; external threads may
  /// call it to help drain the pool.
  bool RunOneTask() { return RunOneTask(kAnyGroup); }

 private:
  template <typename T>
  friend class Future;

  static constexpr uint64_t kAnyGroup = 0;

  struct Task {
    uint64_t group = kAnyGroup;
    std::function<void()> fn;
  };

  struct Worker {
    std::mutex mutex;
    std::deque<Task> queue;
  };

  /// The calling task's group when called from inside one of this pool's
  /// tasks; otherwise a fresh group.
  uint64_t GroupForSubmit();
  void Push(uint64_t group, std::function<void()> fn);
  /// Pops the entry nearest the deque's back (`steal` = false) or front
  /// (`steal` = true) whose group is `group`; kAnyGroup matches every entry.
  bool PopFrom(size_t worker, bool steal, uint64_t group, Task* task);
  /// Runs one queued task of `group` (kAnyGroup: of any group): the calling
  /// worker's own deque first, from the back, then the others from the
  /// front. Future::Wait passes the waited future's group.
  bool RunOneTask(uint64_t group);
  void WorkerLoop(size_t index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Sleep coordination: pending_ counts queued-but-not-started tasks and is
  // only touched under sleep_mutex_, so a submit cannot slip between a
  // worker's emptiness check and its wait (no lost wakeups).
  std::mutex sleep_mutex_;
  std::condition_variable wake_cv_;
  int pending_ = 0;
  bool stopping_ = false;

  std::atomic<size_t> next_worker_{0};
  std::atomic<uint64_t> next_group_{kAnyGroup + 1};
};

template <typename T>
void Future<T>::Wait() {
  if (pool_ != nullptr && ThreadPool::Current() == pool_) {
    // Called from a worker of the same pool: execute queued tasks of the
    // waited future's group instead of blocking, so nested submission cannot
    // deadlock and no other group's task can delay this wait.
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(state_->mutex);
        if (state_->ready) return;
      }
      if (!pool_->RunOneTask(group_)) {
        // Nothing of the group is queued (our dependency is in flight on
        // another worker): sleep briefly on the future itself.
        std::unique_lock<std::mutex> lock(state_->mutex);
        state_->ready_cv.wait_for(lock, std::chrono::microseconds(200),
                                  [this] { return state_->ready; });
        if (state_->ready) return;
      }
    }
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->ready_cv.wait(lock, [this] { return state_->ready; });
}

/// Applies `fn(0) .. fn(count - 1)` and returns the results in index order —
/// the fixed-order merge that keeps pipelines bit-identical for any thread
/// count. With a pool, iterations run as pool tasks; without one (or for a
/// single item) they run inline. Every iteration is waited for even when one
/// throws — references captured by `fn` stay valid until ParallelMap returns —
/// and the exception of the smallest failing index is rethrown.
template <typename Fn>
auto ParallelMap(ThreadPool* pool, size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, size_t>> {
  using R = std::invoke_result_t<Fn&, size_t>;
  std::vector<R> results;
  results.reserve(count);
  if (pool == nullptr || count <= 1) {
    for (size_t i = 0; i < count; ++i) results.push_back(fn(i));
    return results;
  }
  std::vector<Future<R>> futures;
  futures.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    futures.push_back(pool->Submit([&fn, i] { return fn(i); }));
  }
  std::exception_ptr first_error;
  for (size_t i = 0; i < count; ++i) {
    try {
      results.push_back(futures[i].Get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      results.emplace_back();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace aggrecol::util

#endif  // AGGRECOL_UTIL_THREAD_POOL_H_
