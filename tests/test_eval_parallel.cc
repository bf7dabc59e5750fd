// Parallel evaluation of fresh models: the evaluator's workers call
// ScoreGroup concurrently while the model's lazily filled caches (eval
// receptive fields, KGCN's per-item score rows) are still empty. Scores
// must be bit-identical to a serial pass, and the suite runs under TSan
// in CI to keep the caches race-free.
#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "baselines/kgcn.h"
#include "common/thread_pool.h"
#include "eval/ranking_evaluator.h"
#include "models/kgag_model.h"
#include "test_util.h"

namespace kgag {
namespace {

/// Forwards to a scorer and records every group's score vector.
class RecordingScorer : public GroupScorer {
 public:
  explicit RecordingScorer(GroupScorer* inner) : inner_(inner) {}

  std::vector<double> ScoreGroup(GroupId g,
                                 std::span<const ItemId> items) override {
    std::vector<double> s = inner_->ScoreGroup(g, items);
    std::lock_guard<std::mutex> lock(mu_);
    scores_[g] = s;
    return s;
  }

  const std::map<GroupId, std::vector<double>>& scores() const {
    return scores_;
  }

 private:
  GroupScorer* inner_;
  std::mutex mu_;
  std::map<GroupId, std::vector<double>> scores_;
};

/// Evaluates `serial_model` serially and `parallel_model` (a fresh twin)
/// on four threads; both must report identical metrics and scores.
void ExpectParallelEqualsSerial(const GroupRecDataset& ds,
                                GroupScorer* serial_model,
                                GroupScorer* parallel_model) {
  RankingEvaluator serial(&ds, 5);
  RankingEvaluator parallel(&ds, 5);
  ThreadPool pool(4);
  parallel.set_thread_pool(&pool);
  RecordingScorer a(serial_model);
  RecordingScorer b(parallel_model);
  const EvalResult ra = serial.EvaluateTest(&a);
  const EvalResult rb = parallel.EvaluateTest(&b);
  EXPECT_EQ(ra.hit_at_k, rb.hit_at_k);
  EXPECT_EQ(ra.recall_at_k, rb.recall_at_k);
  EXPECT_EQ(ra.ndcg_at_k, rb.ndcg_at_k);
  EXPECT_EQ(ra.num_groups, rb.num_groups);
  ASSERT_FALSE(a.scores().empty());
  EXPECT_EQ(a.scores(), b.scores());  // exact double equality
}

TEST(ParallelEvalTest, FreshKgagModelMatchesSerialBitExactly) {
  GroupRecDataset ds = testing_util::TinyRand();
  KgagConfig cfg;
  cfg.propagation.dim = 8;
  cfg.propagation.depth = 2;
  cfg.propagation.sample_size = 2;
  cfg.seed = 17;
  auto serial = KgagModel::Create(&ds, cfg);
  auto parallel = KgagModel::Create(&ds, cfg);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectParallelEqualsSerial(ds, serial->get(), parallel->get());
}

TEST(ParallelEvalTest, FreshKgcnModelMatchesSerialBitExactly) {
  GroupRecDataset ds = testing_util::TinyRand();
  KgcnConfig cfg;
  cfg.base.seed = 17;
  cfg.propagation.dim = 8;
  cfg.propagation.depth = 2;
  cfg.propagation.sample_size = 2;
  auto serial =
      KgcnGroupRecommender::Create(&ds, cfg, ScoreAggregation::kAverage);
  auto parallel =
      KgcnGroupRecommender::Create(&ds, cfg, ScoreAggregation::kAverage);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectParallelEqualsSerial(ds, serial->get(), parallel->get());
}

}  // namespace
}  // namespace kgag
