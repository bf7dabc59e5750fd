// Continuous-batching scheduler tests (DESIGN.md §13): late arrivals
// joining in-flight batches bit-identically, the head-anchored batch
// deadline, priority ordering under saturation, deadline/queue-full
// shedding, concurrent-Shutdown safety, and the cache-line layout of the
// engine's contended members. Deterministic pausing uses the engine's
// BatchHook seam — no sleep-and-hope scheduling.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "data/synthetic/standard_datasets.h"
#include "gtest/gtest.h"
#include "models/kgag_model.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "serve/frozen_model.h"
#include "serve/serving_engine.h"

namespace kgag {
namespace serve {

/// Cache-line indices (64-byte lines from the object's start) of the
/// ServingEngine members that different threads write at request rate.
struct ServingEngineLayout {
  struct Range {
    size_t first_line;
    size_t last_line;
  };
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  // offsetof on a non-standard-layout class is conditionally supported;
  // GCC and Clang give the member's byte offset for any class without
  // virtual bases, which ServingEngine has none of.
  static Range Of(size_t offset, size_t size) {
    return {offset / 64, (offset + size - 1) / 64};
  }
  static Range Mutex() {
    return Of(offsetof(ServingEngine, mu_), sizeof(std::mutex));
  }
  static Range PoolSide() {
    const size_t begin = offsetof(ServingEngine, served_);
    const size_t end = offsetof(ServingEngine, start_time_) +
                       sizeof(std::chrono::steady_clock::time_point);
    return Of(begin, end - begin);
  }
  static Range SubmitSide() {
    return Of(offsetof(ServingEngine, next_req_), sizeof(uint64_t));
  }
#pragma GCC diagnostic pop
};

namespace {

bool SharesLine(ServingEngineLayout::Range a, ServingEngineLayout::Range b) {
  return a.first_line <= b.last_line && b.first_line <= a.last_line;
}

TEST(ServingEngineLayoutTest, HotMembersKeepTheirOwnCacheLines) {
  // A shared line turns every write into cross-core traffic for the
  // other side: mu_ is taken per request, the pool side is written per
  // finished request, the Submit side per submitted one.
  const auto mu = ServingEngineLayout::Mutex();
  const auto pool = ServingEngineLayout::PoolSide();
  const auto submit = ServingEngineLayout::SubmitSide();
  EXPECT_EQ(pool.first_line, pool.last_line) << "pool side spans two lines";
  EXPECT_FALSE(SharesLine(mu, pool));
  EXPECT_FALSE(SharesLine(mu, submit));
  EXPECT_FALSE(SharesLine(pool, submit));
  // Members after next_req_ would share its line; it is the last one, and
  // the class's 64-byte alignment pads the object to the line's end.
  EXPECT_EQ(alignof(ServingEngine), 64u);
  EXPECT_EQ(sizeof(ServingEngine) % 64, 0u);
  EXPECT_EQ(submit.last_line, sizeof(ServingEngine) / 64 - 1);
}

using Clock = std::chrono::steady_clock;

class SchedulerTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    dataset_ = new GroupRecDataset(
        MakeMovieLensRandDataset(/*seed=*/11, /*scale=*/0.15));
    KgagConfig config;
    config.propagation.dim = 16;
    config.propagation.depth = 2;
    config.propagation.sample_size = 4;
    config.propagation.final_tanh = false;
    config.eval_tree_samples = 2;
    config.seed = 77;
    auto model = KgagModel::Create(dataset_, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    Result<FrozenModel> frozen = FreezeKgagModel(model->get());
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    frozen_ = new FrozenModel(std::move(*frozen));
  }

  static void TearDownTestSuite() {
    delete frozen_;
    delete dataset_;
    frozen_ = nullptr;
    dataset_ = nullptr;
  }

  static const GroupRecDataset* dataset_;
  static const FrozenModel* frozen_;
};

const GroupRecDataset* SchedulerTest::dataset_ = nullptr;
const FrozenModel* SchedulerTest::frozen_ = nullptr;

std::vector<UserId> Members(GroupId g) {
  auto span = SchedulerTest::dataset_->groups.MembersOf(g);
  return {span.begin(), span.end()};
}

uint64_t CounterValue(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::Global().FindCounter(name);
  return c != nullptr ? c->Value() : 0;
}

/// One-shot gate: the hook blocks the FIRST batch at "start" until the
/// test calls Release(); later batches pass straight through.
class FirstBatchGate {
 public:
  ServingEngine::BatchHook Hook() {
    return [this](const char* phase, const std::vector<uint64_t>&) {
      if (std::string_view(phase) != "start") return;
      std::unique_lock<std::mutex> lock(mu_);
      if (started_) return;  // only the first batch blocks
      started_ = true;
      started_cv_.notify_all();
      release_cv_.wait(lock, [&] { return released_; });
    };
  }
  /// Blocks until the first batch has entered the gate.
  void AwaitStarted() {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [&] { return started_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable started_cv_, release_cv_;
  bool started_ = false;
  bool released_ = false;
};

// ---------------------------------------------------------------------------
// Continuous admission (the tentpole contract)

TEST_F(SchedulerTest, LateArrivalJoinsInFlightBatchBitIdentically) {
  // Solo references first: the late-admitted request must score exactly
  // these bits even though it lands in a batch it didn't start in.
  ServingEngine solo(frozen_, {.max_batch = 1, .cache_capacity = 0});
  const Result<TopKResult> want_a = solo.TopK(Members(0), 5);
  const Result<TopKResult> want_b = solo.TopK(Members(1), 5);
  ASSERT_TRUE(want_a.ok());
  ASSERT_TRUE(want_b.ok());

  ServingEngine engine(frozen_, {.max_batch = 4,
                                 .batch_deadline_us = 0,
                                 .cache_capacity = 0});
  FirstBatchGate gate;
  engine.SetBatchHookForTest(gate.Hook());
  obs::HdrHistogram* sizes =
      obs::MetricsRegistry::Global().GetHdrHistogram("serve.batch_size");
  const obs::HdrSnapshot sizes_before = sizes->Snapshot();

  // A forms a batch alone (deadline 0 = no hold); the hook pauses that
  // batch after it left the queue. B arrives strictly AFTER formation.
  std::future<Result<TopKResult>> fa =
      engine.Submit({.members = Members(0), .k = 5, .exclude_seen = {}});
  gate.AwaitStarted();
  std::future<Result<TopKResult>> fb =
      engine.Submit({.members = Members(1), .k = 5, .exclude_seen = {}});
  gate.Release();

  const Result<TopKResult> got_a = fa.get();
  const Result<TopKResult> got_b = fb.get();
  ASSERT_TRUE(got_a.ok()) << got_a.status().ToString();
  ASSERT_TRUE(got_b.ok()) << got_b.status().ToString();

  // One batch ran: B was admitted into A's in-flight batch, not queued
  // for a second dispatch.
  EXPECT_EQ(engine.batches_run(), 1u);
  EXPECT_EQ(engine.late_admitted(), 1u);
#if KGAG_OBS_ACTIVE
  // ...and it published one batch-size observation, of two requests.
  obs::HdrSnapshot window = sizes->Snapshot();
  window.Subtract(sizes_before);
  EXPECT_EQ(window.total, 1u);
  EXPECT_EQ(window.sum, 2.0);
  EXPECT_EQ(window.counts[obs::HdrHistogram::BucketFor(2.0)], 1u);
#endif

  EXPECT_EQ(got_a->items, want_a->items);
  EXPECT_EQ(got_a->scores, want_a->scores);  // bitwise, no tolerance
  EXPECT_EQ(got_b->items, want_b->items);
  EXPECT_EQ(got_b->scores, want_b->scores);

  const std::string json = engine.StatusJson();
  EXPECT_NE(json.find("\"late_admitted\":1"), std::string::npos) << json;
}

TEST_F(SchedulerTest, ContinuousAdmissionOffRunsSeparateBatches) {
  ServingEngine engine(frozen_, {.max_batch = 4,
                                 .batch_deadline_us = 0,
                                 .cache_capacity = 0,
                                 .continuous_admission = false});
  FirstBatchGate gate;
  engine.SetBatchHookForTest(gate.Hook());
  std::future<Result<TopKResult>> fa =
      engine.Submit({.members = Members(0), .k = 5, .exclude_seen = {}});
  gate.AwaitStarted();
  std::future<Result<TopKResult>> fb =
      engine.Submit({.members = Members(1), .k = 5, .exclude_seen = {}});
  gate.Release();
  ASSERT_TRUE(fa.get().ok());
  ASSERT_TRUE(fb.get().ok());
  EXPECT_EQ(engine.batches_run(), 2u);
  EXPECT_EQ(engine.late_admitted(), 0u);
}

// ---------------------------------------------------------------------------
// Batch-deadline anchoring (bugfix: head request's enqueue time, not the
// dispatcher's wake-up time)

TEST_F(SchedulerTest, BatchDeadlineAnchorsToOldestEnqueueNotWakeup) {
  // continuous_admission=false so the gated first batch can NOT pull the
  // probe request in — the probe must wait for its own dispatch, which
  // is exactly the wait the anchor bug doubles.
  constexpr int64_t kDeadlineUs = 400 * 1000;
  ServingEngine engine(frozen_, {.max_batch = 4,
                                 .batch_deadline_us = kDeadlineUs,
                                 .cache_capacity = 0,
                                 .continuous_admission = false});
  FirstBatchGate gate;
  engine.SetBatchHookForTest(gate.Hook());

  std::future<Result<TopKResult>> fa =
      engine.Submit({.members = Members(0), .k = 3, .exclude_seen = {}});
  gate.AwaitStarted();
  // The probe queues while the dispatcher is stuck in batch 1. By the
  // time the dispatcher wakes, the probe has been waiting longer than
  // the whole coalescing window.
  std::future<Result<TopKResult>> fb =
      engine.Submit({.members = Members(1), .k = 3, .exclude_seen = {}});
  std::this_thread::sleep_for(
      std::chrono::microseconds(kDeadlineUs + 100 * 1000));
  const Clock::time_point released = Clock::now();
  gate.Release();

  ASSERT_TRUE(fb.get().ok());
  const double waited_after_release_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          Clock::now() - released)
          .count();
  ASSERT_TRUE(fa.get().ok());
  // Anchored to the probe's enqueue time, its deadline already passed:
  // dispatch is immediate. The old Clock::now()-anchored wait would add
  // a fresh full window (~400ms) here.
  EXPECT_LT(waited_after_release_us, kDeadlineUs * 0.75)
      << "batch deadline re-armed at wake-up instead of staying anchored "
         "to the oldest request's enqueue time";
  EXPECT_EQ(engine.batches_run(), 2u);
}

// ---------------------------------------------------------------------------
// Deadlines and load shedding

TEST_F(SchedulerTest, ExpiredDeadlineIsShedWithSloError) {
  const uint64_t rejected_before = CounterValue("serve.requests.rejected");
  const uint64_t shed_before = CounterValue("serve.requests.shed.deadline");
  ServingEngine::Options opts;
  opts.max_batch = 4;
  opts.batch_deadline_us = 0;
  opts.cache_capacity = 0;
  opts.slo_objectives = {{"avail", /*target=*/0.5,
                          /*latency_threshold_us=*/0.0,
                          /*count_errors=*/true}};
  ServingEngine engine(frozen_, opts);
  FirstBatchGate gate;
  engine.SetBatchHookForTest(gate.Hook());

  std::future<Result<TopKResult>> fa =
      engine.Submit({.members = Members(0), .k = 3, .exclude_seen = {}});
  gate.AwaitStarted();
  std::future<Result<TopKResult>> doomed =
      engine.Submit({.members = Members(1), .k = 3, .exclude_seen = {},
                     .deadline_us = 1000});
  // Let the 1ms deadline lapse while the batch is held, then release:
  // the scheduler reaches the request only after it expired.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.Release();

  ASSERT_TRUE(fa.get().ok());
  const Result<TopKResult> shed = doomed.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsDeadlineExceeded()) << shed.status().ToString();
  EXPECT_EQ(engine.shed_deadline(), 1u);
  // Shed requests never consume GEMM slots or count as served.
  EXPECT_EQ(engine.requests_served(), 1u);
#if KGAG_OBS_ACTIVE
  EXPECT_EQ(CounterValue("serve.requests.rejected") - rejected_before, 1u);
  EXPECT_EQ(CounterValue("serve.requests.shed.deadline") - shed_before, 1u);
#else
  (void)rejected_before;
  (void)shed_before;
#endif
  // ...but they burn SLO error budget.
  const auto states = engine.slo()->Evaluate();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_GE(states[0].short_window.bad, 1u);

  const std::string json = engine.StatusJson();
  EXPECT_NE(json.find("\"shed_deadline\":1"), std::string::npos) << json;
}

TEST_F(SchedulerTest, FullQueueShedsBatchClassAndDisplacesForInteractive) {
  ServingEngine engine(frozen_, {.max_batch = 1,
                                 .batch_deadline_us = 0,
                                 .cache_capacity = 0,
                                 .max_queue = 2,
                                 .continuous_admission = false});
  FirstBatchGate gate;
  engine.SetBatchHookForTest(gate.Hook());

  // Filler occupies the (single-slot) executing batch; the queue behind
  // it holds at most two.
  std::future<Result<TopKResult>> filler =
      engine.Submit({.members = Members(0), .k = 3, .exclude_seen = {}});
  gate.AwaitStarted();
  auto submit = [&](GroupId g, RequestClass cls) {
    return engine.Submit({.members = Members(g), .k = 3, .exclude_seen = {},
                          .priority = cls});
  };
  std::future<Result<TopKResult>> b1 = submit(1, RequestClass::kBatch);
  std::future<Result<TopKResult>> b2 = submit(2, RequestClass::kBatch);
  // Queue is full: a batch-class arrival is shed outright...
  std::future<Result<TopKResult>> b3 = submit(3, RequestClass::kBatch);
  const Result<TopKResult> shed = b3.get();  // resolves without Release
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted())
      << shed.status().ToString();
  // ...but an interactive arrival displaces the newest batch-class one.
  std::future<Result<TopKResult>> i1 = submit(4, RequestClass::kInteractive);
  const Result<TopKResult> displaced = b2.get();
  ASSERT_FALSE(displaced.ok());
  EXPECT_TRUE(displaced.status().IsResourceExhausted());
  EXPECT_EQ(engine.shed_queue_full(), 2u);

  gate.Release();
  EXPECT_TRUE(filler.get().ok());
  EXPECT_TRUE(b1.get().ok());
  EXPECT_TRUE(i1.get().ok());
}

TEST_F(SchedulerTest, InteractiveRunsBeforeEarlierBatchClassRequests) {
  ServingEngine engine(frozen_, {.max_batch = 1,
                                 .batch_deadline_us = 0,
                                 .cache_capacity = 0,
                                 .continuous_admission = false});
  FirstBatchGate gate;
  engine.SetBatchHookForTest(gate.Hook());

  std::future<Result<TopKResult>> filler =
      engine.Submit({.members = Members(0), .k = 3, .exclude_seen = {}});
  gate.AwaitStarted();
  // Two batch-class requests queue FIRST, then one interactive. With
  // max_batch=1 each dispatch picks exactly one — the interactive
  // request must jump the line.
  std::future<Result<TopKResult>> b1 =
      engine.Submit({.members = Members(1), .k = 3, .exclude_seen = {},
                     .priority = RequestClass::kBatch});
  std::future<Result<TopKResult>> b2 =
      engine.Submit({.members = Members(2), .k = 3, .exclude_seen = {},
                     .priority = RequestClass::kBatch});
  std::future<Result<TopKResult>> i1 =
      engine.Submit({.members = Members(3), .k = 3, .exclude_seen = {},
                     .priority = RequestClass::kInteractive});
  gate.Release();

  const Result<TopKResult> rf = filler.get();
  const Result<TopKResult> r1 = b1.get();
  const Result<TopKResult> r2 = b2.get();
  const Result<TopKResult> ri = i1.get();
  ASSERT_TRUE(rf.ok() && r1.ok() && r2.ok() && ri.ok());
  // Completion order via the engine-wide sequence number.
  EXPECT_EQ(rf->sequence, 1u);
  EXPECT_EQ(ri->sequence, 2u) << "interactive did not jump the queue";
  EXPECT_EQ(r1->sequence, 3u);
  EXPECT_EQ(r2->sequence, 4u);
}

// ---------------------------------------------------------------------------
// Shutdown (bugfix: concurrent callers, no broken promises)

TEST_F(SchedulerTest, ConcurrentShutdownFulfillsEveryPromise) {
  for (int round = 0; round < 5; ++round) {
    ServingEngine engine(frozen_, {.max_batch = 4,
                                   .batch_deadline_us = 100,
                                   .cache_capacity = 8});
    std::mutex futures_mu;
    std::vector<std::future<Result<TopKResult>>> futures;
    std::atomic<bool> go{false};

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < 25; ++i) {
          auto f = engine.Submit({.members = Members((t + i) % 4), .k = 3,
                                  .exclude_seen = {}});
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(f));
        }
      });
    }
    // Two racing Shutdown callers (destructor-vs-signal-handler shape),
    // landing mid-submission-storm.
    for (int s = 0; s < 2; ++s) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        engine.Shutdown();
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();

    // Every future must resolve — served or rejected, never a
    // broken-promise future_error from an abandoned Pending.
    size_t served = 0, rejected = 0;
    for (auto& f : futures) {
      ASSERT_TRUE(f.valid());
      Result<TopKResult> r = Status::Internal("unresolved");
      ASSERT_NO_THROW(r = f.get()) << "broken promise after Shutdown";
      r.ok() ? ++served : ++rejected;
    }
    EXPECT_EQ(served + rejected, futures.size());
    EXPECT_EQ(engine.requests_served(), served);
  }
}

}  // namespace
}  // namespace serve
}  // namespace kgag
