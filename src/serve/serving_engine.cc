#include "serve/serving_engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace kgag {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             Clock::now() - start)
      .count();
}

}  // namespace

ServingEngine::ServingEngine(const FrozenModel* model, Options options)
    : ServingEngine(
          // Non-owning handle: the borrowed-pointer contract (model
          // outlives the engine) carries over from before hot-swap.
          std::shared_ptr<const FrozenModel>(model,
                                             [](const FrozenModel*) {}),
          std::move(options)) {}

ServingEngine::ServingEngine(std::shared_ptr<const FrozenModel> model,
                             Options options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_max_bytes),
      start_time_(Clock::now()) {
  KGAG_CHECK(model != nullptr);
  slot_.model = std::move(model);
  options_.max_batch = std::max<size_t>(1, options_.max_batch);
  if (!options_.slo_objectives.empty()) {
    slo_ = std::make_unique<obs::SloTracker>(options_.slo_objectives);
  }
  dispatcher_ = std::thread(&ServingEngine::DispatcherLoop, this);
}

ServingEngine::~ServingEngine() { Shutdown(); }

ServingEngine::ModelSlot ServingEngine::CurrentSlot() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return slot_;
}

const FrozenModel* ServingEngine::model() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return slot_.model.get();
}

std::shared_ptr<const FrozenModel> ServingEngine::model_ref() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return slot_.model;
}

uint64_t ServingEngine::model_epoch() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return slot_.epoch;
}

std::string ServingEngine::model_version() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return slot_.version;
}

Status ServingEngine::SwapModel(std::shared_ptr<const FrozenModel> next,
                                std::string version) {
  if (next == nullptr) {
    return Status::InvalidArgument("SwapModel: null model");
  }
  const Clock::time_point start = Clock::now();
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    slot_.model = std::move(next);
    epoch = ++slot_.epoch;
    if (version.empty()) {
      slot_.version = "v";
      slot_.version += std::to_string(slot_.epoch);
    } else {
      slot_.version = std::move(version);
    }
  }
  // No queue lock, no cache sweep: admissions already past their slot
  // capture drain on the old model; the epoch tag retires their cache
  // entries lazily (group_cache.h).
  swaps_.fetch_add(1, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.swap.count", 1);
  KGAG_GAUGE_SET("serve.swap.epoch", static_cast<double>(epoch));
  KGAG_GAUGE_SET("serve.swap.last_duration_us", MicrosSince(start));
  return Status::OK();
}

void ServingEngine::Shutdown() {
  // call_once makes concurrent Shutdown() (destructor vs. a signal
  // handler thread) safe: one caller tears down, the others block here
  // until it finishes; later calls are no-ops.
  std::call_once(shutdown_once_, [&] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    dispatcher_.join();
    // The dispatcher drains the queue before exiting, so nothing should
    // remain — but if a queued request somehow survived, reject it
    // rather than destroying an unfulfilled promise (which would raise
    // std::future_error{broken_promise} in the waiter).
    std::deque<Pending> leftovers[2];
    {
      std::lock_guard<std::mutex> lock(mu_);
      leftovers[0].swap(queues_[0]);
      leftovers[1].swap(queues_[1]);
    }
    for (std::deque<Pending>& q : leftovers) {
      for (Pending& p : q) {
        ShedRequest(std::move(p),
                    Status::Internal("serving engine is shut down"));
      }
    }
  });
}

void ServingEngine::SetBatchHookForTest(BatchHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  batch_hook_ = std::move(hook);
}

Result<std::shared_ptr<const GroupRep>> ServingEngine::GetRep(
    const ModelSlot& slot, std::span<const UserId> members, bool* cache_hit,
    uint64_t req_id) {
  KGAG_TRACE_SPAN_REQ("serve.rep_build", req_id);
  *cache_hit = false;
  if (members.empty()) {
    return Status::InvalidArgument("group has no members");
  }
  // Canonical cache key = the same sort+unique BuildGroupRep applies, so
  // key and rep members always agree.
  std::vector<UserId> key(members.begin(), members.end());
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());

  // Lookup and insert both carry the slot's epoch: a rep built on another
  // model version is a miss (and is erased), never a hit.
  if (std::shared_ptr<const GroupRep> rep = cache_.Get(key, slot.epoch)) {
    *cache_hit = true;
    return rep;
  }
  KGAG_ASSIGN_OR_RETURN(GroupRep built, BuildGroupRep(*slot.model, key));
  auto rep = std::make_shared<const GroupRep>(std::move(built));
  cache_.Put(key, rep, slot.epoch);
  return std::shared_ptr<const GroupRep>(rep);
}

uint64_t ServingEngine::FinishRequest(Clock::time_point start) {
  const uint64_t seq = served_.fetch_add(1, std::memory_order_relaxed) + 1;
  KGAG_COUNTER_ADD("serve.requests", 1);
  const double micros = MicrosSince(start);
  KGAG_HDR_OBSERVE("serve.request_latency_us", micros);
  if (slo_) slo_->RecordRequest(micros, /*error=*/false);
  const double elapsed_s = MicrosSince(start_time_) * 1e-6;
  if (elapsed_s > 0) {
    KGAG_GAUGE_SET("serve.qps",
                   static_cast<double>(
                       served_.load(std::memory_order_relaxed)) /
                       elapsed_s);
  }
  KGAG_GAUGE_SET("serve.cache.hit_rate", cache_.HitRate());
  return seq;
}

void ServingEngine::FailRequest(Clock::time_point start) {
  // Failed requests keep their own counter and are NOT counted into
  // served_ or the latency histogram — an invalid-argument rejection
  // finishing in 2us must not drag p50 down — but they do burn SLO
  // error budget.
  KGAG_COUNTER_ADD("serve.requests.failed", 1);
  if (slo_) slo_->RecordRequest(MicrosSince(start), /*error=*/true);
}

void ServingEngine::ShedRequest(Pending pending, Status status) {
  KGAG_COUNTER_ADD("serve.requests.rejected", 1);
  if (status.IsDeadlineExceeded()) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    KGAG_COUNTER_ADD("serve.requests.shed.deadline", 1);
  } else if (status.IsResourceExhausted()) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    KGAG_COUNTER_ADD("serve.requests.shed.queue_full", 1);
  }
  if (slo_) slo_->RecordRequest(MicrosSince(pending.enqueued), /*error=*/true);
  pending.promise.set_value(std::move(status));
}

Result<TopKResult> ServingEngine::TopK(std::span<const UserId> members,
                                       size_t k,
                                       std::span<const ItemId> exclude_seen) {
  const uint64_t req_id = next_req_.fetch_add(1, std::memory_order_relaxed);
  KGAG_TRACE_SPAN_REQ("serve.request", req_id);
  const Clock::time_point start = Clock::now();
  // One slot snapshot for the whole request: rep build, scoring and the
  // cache epoch all agree even if a swap lands mid-request.
  const ModelSlot slot = CurrentSlot();
  bool cache_hit = false;
  Result<std::shared_ptr<const GroupRep>> rep =
      GetRep(slot, members, &cache_hit, req_id);
  if (!rep.ok()) {
    FailRequest(start);
    return rep.status();
  }
  const GroupRep* reps[] = {rep->get()};
  const ScanQuery query{.group = 0, .k = k, .exclude = exclude_seen,
                        .req_id = req_id};
  std::vector<RankedItems> ranked;
  {
    KGAG_TRACE_SPAN_REQ("serve.score_kernel", req_id);
    ranked = ScanTopK(*slot.model, reps, {&query, 1}, options_.pool);
  }
  TopKResult result;
  result.items = std::move(ranked[0].items);
  result.scores = std::move(ranked[0].scores);
  result.cache_hit = cache_hit;
  batches_.fetch_add(1, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.batches", 1);
  KGAG_HDR_OBSERVE("serve.batch_size", 1);
  result.sequence = FinishRequest(start);
  return result;
}

std::future<Result<TopKResult>> ServingEngine::Submit(TopKRequest request) {
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = Clock::now();
  pending.deadline =
      pending.request.deadline_us > 0
          ? pending.enqueued +
                std::chrono::microseconds(pending.request.deadline_us)
          : Clock::time_point::max();
  pending.req_id = next_req_.fetch_add(1, std::memory_order_relaxed);
  KGAG_TRACE_SPAN_REQ("serve.submit", pending.req_id);
  if (obs::TraceRecorder::Global().enabled()) {
    // Trace-epoch timestamp so the dispatcher can emit this request's
    // queue-wait span on the same clock as the submit span.
    pending.submit_ts_us = obs::TraceRecorder::NowUs();
  }
  std::future<Result<TopKResult>> future = pending.promise.get_future();
  const size_t cls = static_cast<size_t>(pending.request.priority) & 1;
  bool notify = false;
  Pending displaced;
  bool have_displaced = false;
  bool shed_arrival = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      KGAG_COUNTER_ADD("serve.requests.rejected", 1);
      pending.promise.set_value(
          Status::Internal("serving engine is shut down"));
      return future;
    }
    if (options_.max_queue > 0 &&
        QueueDepthLocked() >= options_.max_queue) {
      // Admission-time load shedding. An interactive arrival displaces
      // the newest queued batch-class request (shed it instead); a
      // batch-class arrival — or an interactive one with no batch-class
      // victim — is shed outright.
      if (pending.request.priority == RequestClass::kInteractive &&
          !queues_[1].empty()) {
        displaced = std::move(queues_[1].back());
        queues_[1].pop_back();
        have_displaced = true;
      } else {
        shed_arrival = true;
      }
    }
    if (!shed_arrival) {
      queues_[cls].push_back(std::move(pending));
      // Wake the dispatcher only on the transitions it can act on: queue
      // went non-empty (it may be idle) or just filled a whole batch (it
      // may be holding one open under the deadline). Intermediate sizes
      // would only make wait_until re-check its predicate and sleep
      // again.
      const size_t depth = QueueDepthLocked();
      notify = depth == 1 || depth == options_.max_batch;
    }
  }
  if (shed_arrival) {
    ShedRequest(std::move(pending),
                Status::ResourceExhausted("serving queue is full"));
    return future;
  }
  if (have_displaced) {
    ShedRequest(std::move(displaced),
                Status::ResourceExhausted(
                    "displaced by an interactive request"));
  }
  if (notify) cv_.notify_all();
  return future;
}

size_t ServingEngine::QueueDepthLocked() const {
  return queues_[0].size() + queues_[1].size();
}

Clock::time_point ServingEngine::OldestEnqueuedLocked() const {
  Clock::time_point oldest = Clock::time_point::max();
  for (const std::deque<Pending>& q : queues_) {
    if (!q.empty()) oldest = std::min(oldest, q.front().enqueued);
  }
  return oldest;
}

void ServingEngine::TakeBatchLocked(size_t max_take,
                                    std::vector<Pending>* taken,
                                    std::vector<Pending>* shed) {
  const Clock::time_point now = Clock::now();
  while (taken->size() < max_take) {
    // Interactive first, always — priority inversion under saturation
    // is exactly what the two classes exist to prevent.
    std::deque<Pending>* q = !queues_[0].empty()   ? &queues_[0]
                             : !queues_[1].empty() ? &queues_[1]
                                                   : nullptr;
    if (q == nullptr) break;
    Pending p = std::move(q->front());
    q->pop_front();
    if (p.deadline < now) {
      // Expired before we could execute it: shed, don't burn a slot.
      shed->push_back(std::move(p));
      continue;
    }
    taken->push_back(std::move(p));
  }
}

void ServingEngine::DispatcherLoop() {
  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> shed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || QueueDepthLocked() > 0; });
      // Drain queued work even when stopping; exit only once idle.
      if (QueueDepthLocked() == 0) {
        if (stop_) return;
        continue;
      }
      if (options_.max_batch > 1 && options_.batch_deadline_us > 0 &&
          QueueDepthLocked() < options_.max_batch && !stop_) {
        // Hold the batch open so concurrent submitters coalesce — but
        // anchor the deadline to the OLDEST pending request's enqueue
        // time, not to this wake-up: under a slow wake the head must
        // not wait ~2x batch_deadline_us. stop_ also wakes us so
        // shutdown never waits the full deadline.
        const Clock::time_point deadline =
            OldestEnqueuedLocked() +
            std::chrono::microseconds(options_.batch_deadline_us);
        cv_.wait_until(lock, deadline, [&] {
          return stop_ || QueueDepthLocked() >= options_.max_batch;
        });
      }
      TakeBatchLocked(options_.max_batch, &batch, &shed);
    }
    for (Pending& p : shed) {
      ShedRequest(std::move(p),
                  Status::DeadlineExceeded("deadline passed in queue"));
    }
    if (batch.empty()) continue;  // everything expired in the queue

    // The batch runs here, not as a pool task: the scan fans its tiles
    // out over the pool, which a pool worker would run inline.
    ExecuteBatch(std::move(batch));
  }
}

void ServingEngine::ExecuteBatch(std::vector<Pending> batch) {
  KGAG_TRACE_SPAN("serve.batch");
  // The batch binds to ONE model slot for its whole life — late admits
  // included. A SwapModel() racing this batch changes only what the NEXT
  // batch captures; everything below (rep epochs, GEMM, reduce) is
  // computed against this snapshot, so no response can mix versions.
  const ModelSlot slot = CurrentSlot();
  const FrozenModel& model = *slot.model;

  // Stable storage for the whole batch, late admits included: Live
  // holds Pending pointers, so the vector must never reallocate.
  std::vector<Pending> pendings;
  pendings.reserve(options_.max_batch);
  for (Pending& p : batch) pendings.push_back(std::move(p));
  batch.clear();

  BatchHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = batch_hook_;
  }
  auto call_hook = [&](const char* phase) {
    if (!hook) return;
    std::vector<uint64_t> ids;
    ids.reserve(pendings.size());
    for (const Pending& p : pendings) ids.push_back(p.req_id);
    hook(phase, ids);
  };
  call_hook("start");

  // Resolve each request's rep (errors resolve their promises now and
  // drop out of the GEMM). Runs once per admission wave.
  struct Live {
    Pending* pending;
    std::shared_ptr<const GroupRep> rep;
    bool cache_hit;
  };
  std::vector<Live> live;
  live.reserve(options_.max_batch);
  auto admit = [&](size_t first) {
    for (size_t idx = first; idx < pendings.size(); ++idx) {
      Pending& p = pendings[idx];
      // Close out the request's queue-wait: the span runs on the
      // submitter's trace clock from Submit() to here, and the HDR
      // series feeds the same wall interval into /metrics.
      KGAG_HDR_OBSERVE("serve.queue_wait_us", MicrosSince(p.enqueued));
      if (p.submit_ts_us > 0.0) {
        obs::TraceRecorder::Global().Record(
            "serve.queue_wait", p.submit_ts_us,
            obs::TraceRecorder::NowUs() - p.submit_ts_us, p.req_id);
      }
      bool hit = false;
      Result<std::shared_ptr<const GroupRep>> rep =
          GetRep(slot, p.request.members, &hit, p.req_id);
      if (!rep.ok()) {
        FailRequest(p.enqueued);
        p.promise.set_value(rep.status());
        continue;
      }
      live.push_back(Live{&p, rep.MoveValueUnsafe(), hit});
    }
  };
  admit(0);

  // Continuous admission (the slot model): requests that arrived while
  // the reps above were being built join this in-flight batch until its
  // slots fill. Each wave admits at least one request, so the loop is
  // bounded by max_batch.
  while (options_.continuous_admission &&
         pendings.size() < options_.max_batch) {
    call_hook("late_admit_check");
    const size_t before = pendings.size();
    std::vector<Pending> newcomers;
    std::vector<Pending> shed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      TakeBatchLocked(options_.max_batch - pendings.size(), &newcomers,
                      &shed);
    }
    for (Pending& p : shed) {
      ShedRequest(std::move(p),
                  Status::DeadlineExceeded("deadline passed in queue"));
    }
    if (newcomers.empty()) break;
    for (Pending& p : newcomers) pendings.push_back(std::move(p));
    late_admitted_.fetch_add(pendings.size() - before,
                             std::memory_order_relaxed);
    KGAG_COUNTER_ADD("serve.batch.late_admitted",
                     static_cast<uint64_t>(pendings.size() - before));
    admit(before);
  }
  if (live.empty()) return;

  // Coalesce requests for the same canonical group: duplicates share the
  // GEMM rows AND the softmax reduce, and only the final rank (k,
  // exclusions) runs per request. This is the batch-only win — the
  // per-request path cannot share scores even with a warm rep cache,
  // because scores never outlive a batch. Pointer equality catches
  // cache-served duplicates; the member compare catches rebuilt reps
  // (cache disabled or evicted mid-batch). O(batch²) is fine at
  // max_batch <= a few dozen.
  std::vector<const GroupRep*> reps;
  std::vector<ScanQuery> queries(live.size());
  {
    KGAG_TRACE_SPAN("serve.coalesce");
    for (size_t i = 0; i < live.size(); ++i) {
      const GroupRep* rep = live[i].rep.get();
      size_t g = 0;
      while (g < reps.size() && reps[g] != rep &&
             reps[g]->members != rep->members) {
        ++g;
      }
      if (g == reps.size()) reps.push_back(rep);
      const Pending& p = *live[i].pending;
      queries[i] = ScanQuery{.group = g,
                             .k = p.request.k,
                             .exclude = p.request.exclude_seen,
                             .req_id = p.req_id};
    }
  }
  const uint64_t coalesced = static_cast<uint64_t>(live.size() - reps.size());
  coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.coalesced_requests", coalesced);

  // One scan for the whole batch: per item tile, one sp-logit GEMM over
  // the distinct groups' stacked member rows, one softmax reduce per
  // distinct group and one bounded heap per request (ScanTopK). Each
  // output row's k-accumulation order is position-independent, so every
  // request's scores match what a solo TopK produces — late admits
  // included.
  std::vector<RankedItems> ranked;
  {
    KGAG_TRACE_SPAN("serve.score_kernel");
    ranked = ScanTopK(model, reps, queries, options_.pool);
  }

  // Count the batch before fulfilling any promise: a caller that has
  // collected every future must never read a stale batches_run().
  batches_.fetch_add(1, std::memory_order_relaxed);
  KGAG_COUNTER_ADD("serve.batches", 1);
  KGAG_HDR_OBSERVE("serve.batch_size", live.size());

  for (size_t i = 0; i < live.size(); ++i) {
    const Live& l = live[i];
    KGAG_TRACE_SPAN_REQ("serve.reply", l.pending->req_id);
    TopKResult result;
    result.items = std::move(ranked[i].items);
    result.scores = std::move(ranked[i].scores);
    result.cache_hit = l.cache_hit;
    // Bookkeeping first: once the promise is fulfilled the submitter
    // may read requests_served() and must not see a stale count.
    result.sequence = FinishRequest(l.pending->enqueued);
    l.pending->promise.set_value(std::move(result));
  }
}

std::string ServingEngine::StatusJson() const {
  size_t queue_depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = QueueDepthLocked();
  }
  const ModelSlot slot = CurrentSlot();
  std::ostringstream os;
  os.precision(12);
  os << "{\"requests_served\":" << served_.load(std::memory_order_relaxed)
     << ",\"batches_run\":" << batches_.load(std::memory_order_relaxed)
     << ",\"coalesced_requests\":"
     << coalesced_.load(std::memory_order_relaxed)
     << ",\"scheduler\":{\"queue_depth\":" << queue_depth
     << ",\"late_admitted\":"
     << late_admitted_.load(std::memory_order_relaxed)
     << ",\"shed_deadline\":"
     << shed_deadline_.load(std::memory_order_relaxed)
     << ",\"shed_queue_full\":"
     << shed_queue_full_.load(std::memory_order_relaxed) << "}"
     << ",\"options\":{\"max_batch\":" << options_.max_batch
     << ",\"batch_deadline_us\":" << options_.batch_deadline_us
     << ",\"max_queue\":" << options_.max_queue
     << ",\"continuous_admission\":"
     << (options_.continuous_admission ? "true" : "false")
     << ",\"cache_capacity\":" << options_.cache_capacity
     << ",\"cache_max_bytes\":" << options_.cache_max_bytes << "}"
     << ",\"model\":{\"version\":\"" << slot.version
     << "\",\"epoch\":" << slot.epoch
     << ",\"swaps\":" << swaps_.load(std::memory_order_relaxed)
     << ",\"num_users\":" << slot.model->num_users
     << ",\"num_items\":" << slot.model->num_items
     << ",\"dim\":" << slot.model->dim << "}"
     << ",\"cache\":{\"size\":" << cache_.size()
     << ",\"capacity\":" << cache_.capacity()
     << ",\"bytes\":" << cache_.bytes()
     << ",\"max_bytes\":" << cache_.max_bytes()
     << ",\"hits\":" << cache_.hits() << ",\"misses\":" << cache_.misses()
     << ",\"evictions\":" << cache_.evictions()
     << ",\"epoch_evictions\":" << cache_.epoch_evictions()
     << ",\"hit_rate\":" << cache_.HitRate() << "}";
  if (slo_) os << ",\"slo\":" << slo_->StateJson();
  os << "}";
  return os.str();
}

}  // namespace serve
}  // namespace kgag
