#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"

namespace kgag {
namespace {

thread_local bool t_in_pool_worker = false;

std::atomic<ThreadPoolObserver*> g_pool_observer{nullptr};

double MicrosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

void SetThreadPoolObserver(ThreadPoolObserver* observer) {
  g_pool_observer.store(observer, std::memory_order_release);
}

ThreadPoolObserver* GetThreadPoolObserver() {
  return g_pool_observer.load(std::memory_order_acquire);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  ThreadPoolObserver* observer = GetThreadPoolObserver();
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    KGAG_CHECK(!stop_) << "submit on stopped pool";
    tasks_.push(QueuedTask{std::move(pt),
                           observer != nullptr
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{}});
    depth = tasks_.size();
  }
  cv_.notify_one();
  if (observer != nullptr) observer->OnTaskQueued(depth);
  return fut;
}

bool ThreadPool::InWorkerThread() { return t_in_pool_worker; }

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelFor(n, /*grain=*/1, fn);
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  KGAG_CHECK_GT(grain, 0u);
  // A worker blocking on futures of tasks no free worker can ever pick up
  // would deadlock the pool, so nested calls run inline instead.
  if (t_in_pool_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (ThreadPoolObserver* observer = GetThreadPoolObserver()) {
    observer->OnParallelFor(n, grain);
  }
  // Chunked dynamic scheduling: threads atomically claim `grain` indices
  // at a time. The caller drains chunks too, so queue latency (or a fully
  // busy pool) never stalls the loop.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto drain = [next, n, grain, &fn] {
    while (true) {
      const size_t begin = next->fetch_add(grain);
      if (begin >= n) break;
      const size_t end = std::min(begin + grain, n);
      for (size_t i = begin; i < end; ++i) fn(i);
    }
  };
  const size_t chunks = (n + grain - 1) / grain;
  const size_t helpers = std::min(chunks - 1, workers_.size());
  std::vector<std::future<void>> futs;
  futs.reserve(helpers);
  for (size_t t = 0; t < helpers; ++t) futs.push_back(Submit(drain));
  drain();
  for (auto& f : futs) f.get();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  while (true) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    ThreadPoolObserver* observer = GetThreadPoolObserver();
    if (observer != nullptr &&
        task.enqueued != std::chrono::steady_clock::time_point{}) {
      const auto start = std::chrono::steady_clock::now();
      task.fn();
      const auto done = std::chrono::steady_clock::now();
      observer->OnTaskDone(MicrosBetween(task.enqueued, start),
                           MicrosBetween(start, done));
    } else {
      task.fn();
    }
  }
}

void ForEachIndex(ThreadPool* pool, size_t n,
                  const std::function<void(size_t)>& fn) {
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, ThreadPool::RecommendedGrain(n, pool->num_threads()),
                      fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace kgag
