#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "eval/ranking_evaluator.h"

namespace kgag {
namespace {

TEST(ThreadPoolTest, ConcurrencySmoke) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 128; ++i) {
    futs.push_back(pool.Submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPoolTest, ParallelForGrainCoversEachIndexOnce) {
  ThreadPool pool(3);
  for (size_t grain : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(101);
    pool.ParallelFor(hits.size(), grain,
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
  }
}

TEST(ThreadPoolTest, ParallelForGrainZeroItemsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, 16, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ForEachIndexCoversEachIndexOnceWithOrWithoutPool) {
  ThreadPool pool(3);
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{257}}) {
      std::vector<std::atomic<int>> hits(n);
      ForEachIndex(p, n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
      }
    }
  }
}

TEST(ThreadPoolTest, InWorkerThreadFlag) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(2);
  bool seen_in_worker = false;
  pool.Submit([&seen_in_worker] {
        seen_in_worker = ThreadPool::InWorkerThread();
      })
      .get();
  EXPECT_TRUE(seen_in_worker);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  // Every worker is occupied by the outer loop; an inner ParallelFor
  // issued from a worker must run inline instead of waiting on tasks no
  // free worker can ever pick up.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.Submit([&] {
        pool.ParallelFor(hits.size(), 4,
                         [&](size_t i) { hits[i].fetch_add(1); });
      })
      .get();
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, CallerMakesProgressWhenWorkersAreBusy) {
  // Jam the single worker with a task that spins until every loop index
  // has run: the loop can only finish if the caller drains the chunks
  // itself, i.e. caller participation is what unblocks this test.
  ThreadPool pool(1);
  std::atomic<int> done{0};
  auto blocker = pool.Submit([&done] {
    while (done.load() < 16) std::this_thread::yield();
  });
  std::vector<std::atomic<int>> hits(16);
  pool.ParallelFor(hits.size(), 1, [&](size_t i) {
    hits[i].fetch_add(1);
    done.fetch_add(1);
  });
  blocker.get();
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksCleanly) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // Destructor joins after the queue drains; nothing should throw.
  }
  EXPECT_EQ(count.load(), 32);
}

/// Deterministic, read-only (thread-safe) scorer with dense irrational
/// scores, so any accumulation-order change between the serial and
/// parallel evaluator paths would show up in the last mantissa bits.
class SinScorer : public GroupScorer {
 public:
  std::vector<double> ScoreGroup(GroupId g,
                                 std::span<const ItemId> items) override {
    std::vector<double> out(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      out[i] = std::sin(0.37 * static_cast<double>(g) +
                        1.13 * static_cast<double>(items[i]));
    }
    return out;
  }
};

TEST(ThreadPoolTest, ParallelEvaluatorBitIdenticalToSerial) {
  GroupRecDataset ds;
  ds.name = "pool-test";
  std::vector<Interaction> interactions;
  for (int32_t g = 0; g < 37; ++g) {
    for (int32_t j = 0; j < 4; ++j) {
      interactions.push_back({g, (g * 13 + j * 29) % 97});
    }
  }
  SinScorer scorer;
  RankingEvaluator serial_eval(&ds, 5);
  const EvalResult serial = serial_eval.Evaluate(&scorer, interactions);

  ThreadPool pool(4);
  RankingEvaluator parallel_eval(&ds, 5);
  parallel_eval.set_thread_pool(&pool);
  for (int rep = 0; rep < 5; ++rep) {
    const EvalResult parallel = parallel_eval.Evaluate(&scorer, interactions);
    EXPECT_EQ(serial.num_groups, parallel.num_groups);
    EXPECT_EQ(serial.hit_at_k, parallel.hit_at_k);
    EXPECT_EQ(serial.recall_at_k, parallel.recall_at_k);
    EXPECT_EQ(serial.ndcg_at_k, parallel.ndcg_at_k);
  }
}

}  // namespace
}  // namespace kgag
