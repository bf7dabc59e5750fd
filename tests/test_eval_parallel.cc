// Parallel evaluation of fresh models: the evaluator hands its pool to
// the scorer's batch entry (GroupScorer::ScoreGroups) while the model's
// lazily filled eval receptive fields are still empty. Scores must be
// bit-identical to a serial pass and to one-group ScoreGroup calls, and
// the suite runs under TSan in CI to keep the tree cache race-free.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baselines/kgcn.h"
#include "baselines/mf.h"
#include "common/thread_pool.h"
#include "data/synthetic/standard_datasets.h"
#include "eval/ranking_evaluator.h"
#include "models/kgag_model.h"
#include "test_util.h"

namespace kgag {
namespace {

/// Forwards the batch entry to a scorer and records every group's score
/// row.
class RecordingScorer : public GroupScorer {
 public:
  explicit RecordingScorer(GroupScorer* inner) : inner_(inner) {}

  std::vector<double> ScoreGroup(GroupId g,
                                 std::span<const ItemId> items) override {
    return inner_->ScoreGroup(g, items);
  }

  std::vector<double> ScoreGroups(std::span<const GroupId> groups,
                                  std::span<const ItemId> items,
                                  ThreadPool* pool) override {
    std::vector<double> s = inner_->ScoreGroups(groups, items, pool);
    for (size_t i = 0; i < groups.size(); ++i) {
      scores_[groups[i]].assign(s.begin() + i * items.size(),
                                s.begin() + (i + 1) * items.size());
    }
    return s;
  }

  const std::map<GroupId, std::vector<double>>& scores() const {
    return scores_;
  }

 private:
  GroupScorer* inner_;
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

/// The test split's groups and candidate pool, sorted, as Evaluate forms
/// them.
struct TestSlice {
  std::vector<GroupId> groups;
  std::vector<ItemId> pool;
};

TestSlice SliceOf(const GroupRecDataset& ds) {
  std::set<GroupId> groups;
  std::set<ItemId> pool;
  for (const Interaction& it : ds.split.test) {
    groups.insert(it.row);
    pool.insert(it.item);
  }
  return {{groups.begin(), groups.end()}, {pool.begin(), pool.end()}};
}

/// Per-group ScoreGroup rows over the test slice, concatenated.
std::vector<double> PerGroupScores(GroupScorer* model,
                                   const TestSlice& slice) {
  std::vector<double> out;
  for (GroupId g : slice.groups) {
    const std::vector<double> row = model->ScoreGroup(g, slice.pool);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

/// ScoreGroups over every test group, on a 4-thread pool (first, so the
/// fresh model's trees are filled concurrently) and serially, equals
/// per-group ScoreGroup with exact double equality.
void ExpectBatchEqualsPerGroup(const GroupRecDataset& ds, GroupScorer* model) {
  const TestSlice slice = SliceOf(ds);
  ThreadPool pool(4);
  const std::vector<double> parallel =
      model->ScoreGroups(slice.groups, slice.pool, &pool);
  const std::vector<double> serial =
      model->ScoreGroups(slice.groups, slice.pool, /*pool=*/nullptr);
  const std::vector<double> per_group = PerGroupScores(model, slice);
  ASSERT_EQ(per_group.size(), slice.groups.size() * slice.pool.size());
  EXPECT_EQ(serial, per_group);
  EXPECT_EQ(parallel, per_group);
}

/// A world whose test slice (199 groups, 67 items) ends in a partial
/// block of 64 candidates and a partial chunk of 64 groups, the units of
/// the KGAG batch path.
GroupRecDataset BatchWorld() { return MakeMovieLensRandDataset(7, 0.25); }

TEST(BatchScoreTest, SliceCrossesTheBlockAndChunkSizes) {
  const TestSlice slice = SliceOf(BatchWorld());
  EXPECT_GT(slice.groups.size(), 64u);
  EXPECT_NE(slice.groups.size() % 64, 0u);
  EXPECT_GT(slice.pool.size(), 64u);
  EXPECT_NE(slice.pool.size() % 64, 0u);
}

TEST(BatchScoreTest, KgagMatchesPerGroupBitExactly) {
  GroupRecDataset ds = BatchWorld();
  for (bool use_kg : {true, false}) {
    for (int samples : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "use_kg=" << use_kg << " eval_tree_samples=" << samples);
      KgagConfig cfg;
      cfg.propagation.dim = 8;
      cfg.propagation.depth = 2;
      cfg.propagation.sample_size = 2;
      cfg.use_kg = use_kg;
      cfg.eval_tree_samples = samples;
      cfg.seed = 19;
      auto model = KgagModel::Create(&ds, cfg);
      ASSERT_TRUE(model.ok());
      ExpectBatchEqualsPerGroup(ds, model->get());
    }
  }
}

TEST(BatchScoreTest, KgcnMatchesPerGroupBitExactly) {
  GroupRecDataset ds = BatchWorld();
  KgcnConfig cfg;
  cfg.base.seed = 19;
  cfg.propagation.dim = 8;
  cfg.propagation.depth = 2;
  cfg.propagation.sample_size = 2;
  auto model =
      KgcnGroupRecommender::Create(&ds, cfg, ScoreAggregation::kLeastMisery);
  ASSERT_TRUE(model.ok());
  ExpectBatchEqualsPerGroup(ds, model->get());
}

TEST(BatchScoreTest, DefaultPathMatchesPerGroupBitExactly) {
  // MF keeps GroupScorer's default ScoreGroups (ScoreGroup per group).
  GroupRecDataset ds = BatchWorld();
  MfConfig cfg;
  cfg.seed = 19;
  MfGroupRecommender model(&ds, cfg, ScoreAggregation::kAverage);
  ExpectBatchEqualsPerGroup(ds, &model);
}

TEST(BatchScoreTest, KgcnScoresFollowTraining) {
  // KGCN keeps no score state between calls, so after another epoch the
  // one-group and batch paths agree with each other and not with the
  // scores from before the epoch.
  GroupRecDataset ds = testing_util::TinyRand();
  KgcnConfig cfg;
  cfg.base.seed = 23;
  cfg.base.pairs_per_epoch = 200;
  cfg.propagation.dim = 8;
  cfg.propagation.depth = 2;
  cfg.propagation.sample_size = 2;
  auto model =
      KgcnGroupRecommender::Create(&ds, cfg, ScoreAggregation::kAverage);
  ASSERT_TRUE(model.ok());
  const TestSlice slice = SliceOf(ds);
  ThreadPool pool(4);
  const std::vector<double> before =
      (*model)->ScoreGroups(slice.groups, slice.pool, &pool);
  Rng rng(29);
  (*model)->TrainEpoch(&rng);
  const std::vector<double> after =
      (*model)->ScoreGroups(slice.groups, slice.pool, &pool);
  EXPECT_EQ(PerGroupScores(model->get(), slice), after);
  EXPECT_NE(before, after);
}

}  // namespace
}  // namespace kgag
