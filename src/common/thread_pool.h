// Fixed-size work-queue thread pool backing the parallel paths: training
// fans out over fixed mini-batch shards (KgagConfig::train_threads, see
// DESIGN.md §9), evaluation fans out over members, items and groups (see
// RankingEvaluator::set_thread_pool) and large GEMMs fan out over row
// panels (see kernels::SetComputeThreadPool). All write to disjoint
// preallocated slots so results are bit-identical to their serial runs.
#ifndef KGAG_COMMON_THREAD_POOL_H_
#define KGAG_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace kgag {

/// \brief Hooks for observing pool activity (the obs layer feeds these
/// into its metrics registry). Callbacks run on submitter and worker
/// threads concurrently, so implementations must be thread-safe, cheap,
/// and must never touch the pool (re-entrancy would deadlock).
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;
  /// A task entered the queue; `queue_depth` counts tasks waiting after
  /// the push.
  virtual void OnTaskQueued(size_t queue_depth) = 0;
  /// A task finished: `wait_us` queue latency (enqueue to start),
  /// `run_us` execution time.
  virtual void OnTaskDone(double wait_us, double run_us) = 0;
  /// A top-level ParallelFor started (nested inline runs don't report).
  virtual void OnParallelFor(size_t n, size_t grain) {
    (void)n;
    (void)grain;
  }
};

/// Installs a process-wide borrowed observer shared by every pool
/// (nullptr disables; the default). The observer must outlive all pools.
void SetThreadPoolObserver(ThreadPoolObserver* observer);
ThreadPoolObserver* GetThreadPoolObserver();

/// \brief Simple work-queue thread pool.
class ThreadPool {
 public:
  /// \param num_threads number of workers; 0 means hardware_concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it completes.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and blocks until done.
  /// Equivalent to the chunked overload with grain = 1.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Chunked variant: workers claim `grain` consecutive indices per
  /// atomic fetch, so the per-index scheduling overhead is amortized when
  /// individual work items are tiny. Contract:
  ///   - every i in [0, n) is passed to fn exactly once;
  ///   - indices within a chunk run in ascending order on one thread,
  ///     but chunks run in no particular order relative to each other,
  ///     so fn must only touch per-index state (e.g. preallocated slots);
  ///   - the calling thread participates in the loop (a 1-worker pool
  ///     still makes progress even if every worker is busy);
  ///   - calls from inside a pool worker run the whole loop inline on
  ///     that worker — nested ParallelFor cannot deadlock the pool;
  ///   - fn must not throw (a throw escapes to the caller and any chunks
  ///     already handed to workers still complete).
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t)>& fn);

  /// True when the calling thread is one of this or any pool's workers.
  /// Used to run nested parallel constructs inline instead of re-queuing.
  static bool InWorkerThread();

  /// Grain that splits n items into ~`chunks_per_worker` chunks per
  /// executing thread (workers + the participating caller): large enough
  /// to amortize the per-chunk atomic fetch, small enough that uneven
  /// items still load-balance. Callers with tiny per-item work should
  /// prefer this over a hardcoded grain so the choice tracks pool size.
  static size_t RecommendedGrain(size_t n, size_t workers,
                                 size_t chunks_per_worker = 8) {
    const size_t executors = workers + 1;
    const size_t chunks = executors * std::max<size_t>(1, chunks_per_worker);
    return std::max<size_t>(1, n / chunks);
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  /// Queued work plus its enqueue time (steady clock), so the observer
  /// can report queue latency.
  struct QueuedTask {
    std::packaged_task<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(i) for every i in [0, n): on `pool` with the RecommendedGrain
/// split when a pool is given and n > 1, else inline in index order. fn
/// must only touch per-index state, as for ParallelFor.
void ForEachIndex(ThreadPool* pool, size_t n,
                  const std::function<void(size_t)>& fn);

}  // namespace kgag

#endif  // KGAG_COMMON_THREAD_POOL_H_
