// Online serving engine (DESIGN.md §10, §13): answers TopK(group_members,
// k, exclude_seen) against a FrozenModel.
//
// Request path:
//   canonicalize members -> GroupRepCache lookup -> (miss: BuildGroupRep,
//   insert) -> ScanTopK (frozen_scorer.h): per fixed item tile, an
//   SP-logit GEMM, the per-item softmax-reduce and a bounded-heap top-k
//   with the exclusion set filtered at rank time, so exclusions never
//   change the GEMM shape or any surviving item's score bits. Tiles fan
//   out over Options::pool; the per-tile heaps merge under the
//   TopKIndicesWhere order.
//
// Continuous batching: Submit() enqueues the request and returns a
// future. A dispatcher thread coalesces up to max_batch requests —
// holding the batch open at most batch_deadline_us past the OLDEST
// pending request's enqueue time — then executes them slot-style: while
// member reps are being resolved, newly arrived requests are admitted
// into the still-forming in-flight batch until every slot is taken
// (llama.cpp server slot model; Options::continuous_admission). Only
// then does ONE scan run for the whole batch: per item tile, one GEMM
// over all the batch's stacked member rows (Σ|members| x dim)·(dim x
// tile), then each request reduced and ranked from its row block. The
// dispatcher runs the batch itself so the scan's tiles can fan out over
// the pool. Requests for the same canonical group are coalesced first:
// duplicates share both the GEMM rows and the per-item softmax reduce,
// and only the final rank (k, exclusions) runs per request. Each output
// row's accumulation order is independent of the other rows in the
// call, so batched scores are bit-identical to solo scores — late
// admits included (pinned by tests/test_scheduler.cc).
//
// Admission control: every request carries a priority class
// (interactive before batch at every pickup) and an optional relative
// deadline. A request whose deadline has already passed when the
// scheduler reaches it is shed — its future resolves with
// DeadlineExceeded, it never consumes GEMM slots. When
// Options::max_queue is set, arrivals beyond the bound are shed at
// admission with ResourceExhausted; an interactive arrival displaces
// the newest queued batch-class request instead of being dropped.
//
// TopK() is the synchronous path: same scoring code, no queue — batches
// of one, for callers that need plain request/response.
//
// serve.* metrics: requests (plus .failed / .rejected and the shed
// split serve.requests.shed.{deadline,queue_full}), batches,
// serve.batch.late_admitted, HDR histograms of batch size, request
// latency and queue wait (submit -> completion, exact-count
// quantiles), qps gauge, cache hit/miss counters and hit-rate/size
// gauges (from GroupRepCache).
//
// Request-scoped tracing: every request gets a monotonic id at
// Submit()/TopK() time; the spans it touches on any thread
// (serve.submit -> serve.queue_wait -> serve.rep_build ->
// serve.score_kernel, the scan, enclosing the request's serve.topk heap
// merge -> serve.reply, under the batch-level
// serve.batch/serve.coalesce envelopes) carry that id, so
// one request's life is reconstructable from /tracez or the
// chrome://tracing export even though it crosses the dispatcher thread
// boundary.
//
// SLO tracking: when Options::slo_objectives is non-empty the engine
// owns an obs::SloTracker and classifies every finished request
// (latency, error) against each objective; shed and failed requests
// burn error budget. slo() exposes it for gauge export and /statusz.
//
// Hot-swap (DESIGN.md §15): the engine holds the FrozenModel as a
// versioned shared_ptr slot. SwapModel() publishes a new model + epoch
// atomically; every batch (and every synchronous TopK) captures ONE slot
// snapshot at its start and computes entirely against it, so in-flight
// batches drain on the old version while the next admission binds the
// new one — a swap never fails, sheds or delays a request. Group-rep
// cache entries are tagged with the slot epoch; a rep built on epoch N
// can never be served by a batch bound to epoch M != N (group_cache.h),
// which is what makes the swap coherent, not just lock-free. The old
// model's shared_ptr dies when the last draining batch drops it.
// serve.swap.* metrics: count, epoch gauge, last swap duration.
#ifndef KGAG_SERVE_SERVING_ENGINE_H_
#define KGAG_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/interactions.h"
#include "obs/slo.h"
#include "serve/frozen_model.h"
#include "serve/frozen_scorer.h"
#include "serve/group_cache.h"

namespace kgag {
namespace serve {

/// \brief Scheduling class of a request. Interactive requests are picked
/// before batch-class ones at every admission point, and under queue
/// pressure batch-class requests are shed first.
enum class RequestClass : uint8_t {
  kInteractive = 0,
  kBatch = 1,
};

/// \brief One scoring request. Member order and duplicates don't matter
/// (canonicalized); `exclude_seen` items are dropped from the ranking.
struct TopKRequest {
  std::vector<UserId> members;
  size_t k = 10;
  std::vector<ItemId> exclude_seen;
  /// Scheduling class (see RequestClass).
  RequestClass priority = RequestClass::kInteractive;
  /// Relative deadline in micros from Submit(); 0 = none. A request the
  /// scheduler reaches after its deadline is shed (DeadlineExceeded)
  /// without consuming a GEMM slot.
  int64_t deadline_us = 0;
};

/// \brief Ranked recommendation: items[0] is the best candidate.
struct TopKResult {
  std::vector<ItemId> items;    ///< descending score, ties to smaller id
  std::vector<double> scores;   ///< parallel to items
  bool cache_hit = false;       ///< group rep came from the cache
  /// 1-based completion index across the engine (the value of
  /// requests_served() the moment this request finished) — lets tests
  /// and clients observe scheduling order.
  uint64_t sequence = 0;
};

/// \brief Thread-safe serving front-end over a FrozenModel.
class ServingEngine {
 public:
  struct Options {
    /// Most requests one dispatcher batch coalesces (1 = per-request).
    size_t max_batch = 16;
    /// How long the dispatcher holds an open batch waiting for more
    /// requests after the OLDEST pending one arrived. 0 = dispatch
    /// immediately.
    int64_t batch_deadline_us = 200;
    /// Group-representation LRU entries (0 disables the cache).
    size_t cache_capacity = 1024;
    /// Approximate byte bound on the cached group reps (0 = entries
    /// only). Large groups make entry count a poor memory proxy; see
    /// GroupRepCache.
    size_t cache_max_bytes = 0;
    /// Borrowed pool the scan fans its item tiles out over, for batches
    /// and synchronous TopK alike; nullptr = the scan runs inline on the
    /// calling thread. Must outlive the engine.
    ThreadPool* pool = nullptr;
    /// Queued-request bound across both priority classes (0 =
    /// unbounded). Arrivals beyond it are shed at admission with
    /// ResourceExhausted; interactive arrivals displace the newest
    /// queued batch-class request instead.
    size_t max_queue = 0;
    /// Admit requests that arrive while a batch is resolving member
    /// reps into that in-flight batch (until its slots fill). On by
    /// default; off restores strict take-then-execute batches.
    bool continuous_admission = true;
    /// SLO objectives every finished request is classified against
    /// (obs::DefaultServingObjectives() for the standard serving pair).
    /// Empty = no tracker; slo() returns nullptr.
    std::vector<obs::SloObjective> slo_objectives = {};
  };

  /// `model` is borrowed and must outlive the engine (the pre-hot-swap
  /// contract, kept for single-artifact callers; wraps the pointer in a
  /// non-owning shared_ptr internally). An engine built this way can
  /// still SwapModel() to an owned model later.
  ServingEngine(const FrozenModel* model, Options options);
  /// Shared-ownership constructor: the engine (and any batch still
  /// draining after a swap) keeps the model alive.
  ServingEngine(std::shared_ptr<const FrozenModel> model, Options options);
  /// Drains already-queued requests, then stops the dispatcher.
  ~ServingEngine();

  /// Drains already-queued requests and stops the dispatcher; later
  /// Submit()s fail fast (counted as serve.requests.rejected). The
  /// synchronous TopK() path keeps working. Idempotent AND safe to race
  /// with itself from multiple threads (destructor vs. signal handler):
  /// exactly one caller runs the teardown, the rest block until it is
  /// done. Every queued request's promise is fulfilled — with its
  /// result or a rejection, never abandoned as a broken promise.
  void Shutdown();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Synchronous scoring: canonicalize, aggregate, score, rank. Fails on
  /// empty/out-of-range members.
  Result<TopKResult> TopK(std::span<const UserId> members, size_t k,
                          std::span<const ItemId> exclude_seen = {});

  /// Queues a request for continuous-batched execution. The request's
  /// priority/deadline_us fields drive admission (see RequestClass).
  std::future<Result<TopKResult>> Submit(TopKRequest request);

  /// Publishes `next` as the serving model under a new epoch and version
  /// label. Zero-downtime: callers keep submitting throughout; batches
  /// already executing finish on the model they captured. Fails only on
  /// a null model. Thread-safe against Submit/TopK and itself.
  Status SwapModel(std::shared_ptr<const FrozenModel> next,
                   std::string version = "");

  GroupRepCache* cache() { return &cache_; }
  /// The CURRENT model (a snapshot — may be superseded by a concurrent
  /// SwapModel; prefer model_ref() when the caller needs it to stay
  /// alive).
  const FrozenModel* model() const;
  /// Shared handle on the current model.
  std::shared_ptr<const FrozenModel> model_ref() const;
  /// Monotonic model epoch: 0 for the constructor model, +1 per swap.
  uint64_t model_epoch() const;
  /// Version label of the current model ("v0" for the constructor model
  /// unless SwapModel relabels it).
  std::string model_version() const;
  /// Completed SwapModel calls.
  uint64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }
  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  uint64_t batches_run() const {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Requests that shared another request's GEMM rows + softmax reduce
  /// because their canonical group already appeared in the same batch.
  uint64_t coalesced_requests() const {
    return coalesced_.load(std::memory_order_relaxed);
  }
  /// Requests admitted into a batch that was already resolving reps
  /// when they arrived (the continuous-batching win).
  uint64_t late_admitted() const {
    return late_admitted_.load(std::memory_order_relaxed);
  }
  /// Requests shed because their deadline passed before execution.
  uint64_t shed_deadline() const {
    return shed_deadline_.load(std::memory_order_relaxed);
  }
  /// Requests shed at admission because the queue was full.
  uint64_t shed_queue_full() const {
    return shed_queue_full_.load(std::memory_order_relaxed);
  }

  /// The engine's SLO tracker, or nullptr when Options::slo_objectives
  /// was empty. Borrowed; valid for the engine's lifetime.
  obs::SloTracker* slo() { return slo_.get(); }
  const obs::SloTracker* slo() const { return slo_.get(); }

  /// Engine state as JSON for /statusz: request/batch/coalesce counts,
  /// shed/late-admission counters, queue depth, cache occupancy and hit
  /// rate, batching options, SLO state.
  std::string StatusJson() const;

  /// Test seam: `hook(phase, req_ids)` is invoked on the batch-executing
  /// thread at named points of a batch's life ("start" after the batch
  /// is taken from the queue, "late_admit_check" before each in-flight
  /// admission poll) with the request ids currently in the batch. Lets
  /// tests pause a batch deterministically (e.g. to land a late arrival
  /// or pile up a backlog). Set before the first Submit; never set in
  /// production.
  using BatchHook =
      std::function<void(const char* phase,
                         const std::vector<uint64_t>& req_ids)>;
  void SetBatchHookForTest(BatchHook hook);

 private:
  struct Pending {
    TopKRequest request;
    std::promise<Result<TopKResult>> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute shed deadline (enqueued + request.deadline_us);
    /// time_point::max() when the request carries none.
    std::chrono::steady_clock::time_point deadline;
    uint64_t req_id = 0;
    /// Trace-epoch submit timestamp, recorded only while tracing is
    /// enabled (0 otherwise); lets the dispatcher emit the queue-wait
    /// span against the submitter's clock.
    double submit_ts_us = 0.0;
  };

  /// One published model version. Batches capture a whole slot so the
  /// model pointer and the cache epoch can never disagree.
  struct ModelSlot {
    std::shared_ptr<const FrozenModel> model;
    uint64_t epoch = 0;
    std::string version = "v0";
  };

  /// Copy of the current slot (the capture point of every batch).
  ModelSlot CurrentSlot() const;

  /// Cache-through rep lookup against one captured slot. `members` may
  /// be in any order. `req_id` only labels the trace span.
  Result<std::shared_ptr<const GroupRep>> GetRep(
      const ModelSlot& slot, std::span<const UserId> members,
      bool* cache_hit, uint64_t req_id);

  void DispatcherLoop();
  /// Scores a batch with one stacked scan and fulfills every promise.
  /// Pulls late arrivals into the batch while reps resolve. Runs on the
  /// dispatcher thread.
  void ExecuteBatch(std::vector<Pending> batch);

  size_t QueueDepthLocked() const;
  /// Oldest enqueue time across both priority queues; call with a
  /// non-empty queue only.
  std::chrono::steady_clock::time_point OldestEnqueuedLocked() const;
  /// Pops up to `max_take` requests in priority order into `taken`,
  /// moving deadline-expired ones into `shed` instead (they don't count
  /// against max_take). Caller resolves `shed` outside the lock.
  void TakeBatchLocked(size_t max_take, std::vector<Pending>* taken,
                       std::vector<Pending>* shed);
  /// Resolves one shed request: promise, counters, SLO error budget.
  void ShedRequest(Pending pending, Status status);

  /// Bookkeeping common to both paths, called once per successfully
  /// finished request. Returns the request's 1-based completion index.
  uint64_t FinishRequest(std::chrono::steady_clock::time_point start);
  /// Bookkeeping for a request that resolved with an error.
  void FailRequest(std::chrono::steady_clock::time_point start);

  /// Current model slot; guarded by model_mu_ (a copy is cheap — one
  /// shared_ptr bump — and taken once per batch, not per request).
  mutable std::mutex model_mu_;
  ModelSlot slot_;
  std::atomic<uint64_t> swaps_{0};

  Options options_;
  GroupRepCache cache_;
  std::unique_ptr<obs::SloTracker> slo_;

  /// Own cache line: taken at request rate; sharing one with per-request
  /// counters (the cache's hits) cost train_refresh a quarter of its reads/s.
  alignas(64) mutable std::mutex mu_;
  std::condition_variable cv_;
  /// One FIFO per RequestClass; index = static_cast<size_t>(class).
  std::deque<Pending> queues_[2];
  bool stop_ = false;
  std::thread dispatcher_;
  std::once_flag shutdown_once_;
  BatchHook batch_hook_;  ///< guarded by mu_; copied at batch start

  /// Pool side, one line: the counters bumped per finished request or
  /// batch, and start_time_, read in every FinishRequest. Kept off mu_'s
  /// line and off the Submit side's (pinned in test_scheduler).
  alignas(64) std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> late_admitted_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  const std::chrono::steady_clock::time_point start_time_;

  /// Submit side, own line: the request-id allocator (0 = none), written
  /// by every Submit and TopK on the callers' threads.
  alignas(64) std::atomic<uint64_t> next_req_{1};

  friend struct ServingEngineLayout;  // the layout test
};

}  // namespace serve
}  // namespace kgag

#endif  // KGAG_SERVE_SERVING_ENGINE_H_
