#include "util/thread_pool.h"

#include <algorithm>
#include <iterator>

namespace aggrecol::util {
namespace {

// Worker identity for nested-wait detection: which pool the thread belongs
// to, its own deque index within it, and the group of the task it is
// running (what a Submit from inside that task joins).
thread_local ThreadPool* current_pool = nullptr;
thread_local size_t current_worker = 0;
thread_local uint64_t current_group = 0;

}  // namespace

ThreadPool::ThreadPool(int thread_count) {
  const size_t n = static_cast<size_t>(std::max(1, thread_count));
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

ThreadPool* ThreadPool::Current() { return current_pool; }

uint64_t ThreadPool::GroupForSubmit() {
  return current_pool == this ? current_group
                              : next_group_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::Push(uint64_t group, std::function<void()> fn) {
  // A worker pushes onto its own deque (LIFO end); external submitters
  // round-robin across the workers.
  const size_t target =
      current_pool == this
          ? current_worker
          : next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->queue.push_back(Task{group, std::move(fn)});
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    ++pending_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::PopFrom(size_t worker, bool steal, uint64_t group, Task* task) {
  std::lock_guard<std::mutex> lock(workers_[worker]->mutex);
  auto& queue = workers_[worker]->queue;
  const auto matches = [group](const Task& entry) {
    return group == kAnyGroup || entry.group == group;
  };
  auto it = queue.end();
  if (steal) {
    it = std::find_if(queue.begin(), queue.end(), matches);
  } else {
    const auto from_back = std::find_if(queue.rbegin(), queue.rend(), matches);
    it = from_back == queue.rend() ? queue.end() : std::prev(from_back.base());
  }
  if (it == queue.end()) return false;
  *task = std::move(*it);
  queue.erase(it);
  return true;
}

bool ThreadPool::RunOneTask(uint64_t group) {
  const bool is_worker = current_pool == this;
  const size_t self = is_worker ? current_worker : 0;

  Task task;
  bool found = is_worker && PopFrom(self, /*steal=*/false, group, &task);
  if (!found) {
    // Steal FIFO from the other deques, scanning from the next index so the
    // victims rotate instead of piling onto worker 0.
    for (size_t offset = 1; offset <= workers_.size() && !found; ++offset) {
      const size_t victim = (self + offset) % workers_.size();
      if (is_worker && victim == self) continue;
      found = PopFrom(victim, /*steal=*/true, group, &task);
    }
  }
  if (!found) return false;

  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    --pending_;
  }
  // A waiter may run a task of another group (the group of an externally
  // submitted future it waits on), so restore the outer task's group after.
  const uint64_t outer_group = current_group;
  if (is_worker) current_group = task.group;
  task.fn();
  current_group = outer_group;
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  current_pool = this;
  current_worker = index;
  for (;;) {
    if (RunOneTask()) continue;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (pending_ > 0) continue;  // raced with a submit; go pick it up
    if (stopping_) break;        // drained and told to stop
    wake_cv_.wait(lock, [this] { return pending_ > 0 || stopping_; });
  }
  current_pool = nullptr;
}

}  // namespace aggrecol::util
