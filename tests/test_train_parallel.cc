// Determinism contract of data-parallel training (DESIGN.md §9): for a
// fixed config, TrainEpoch must produce byte-identical training state —
// parameters, Adam moments, RNG snapshots, batcher cursors — for every
// train_threads value and for arena on/off. The thread-count and arena
// tests run two configs: a small one (dim 8, depth 1) and the training
// config of the paper-reproduction benches (dim 16, depth 2, K 6), both
// small enough for the sanitizer jobs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "data/synthetic/standard_datasets.h"
#include "models/kgag_model.h"

namespace kgag {
namespace {

struct Snapshot {
  std::string params;
  std::string optimizer;
  std::string rng;
  std::string batcher;
  double last_loss = 0.0;
};

/// One (dataset, config) pair the determinism contract is checked on.
struct TrainInput {
  const GroupRecDataset* ds;
  KgagConfig cfg;
  const char* name;
};

class TrainParallelTest : public ::testing::Test {
 protected:
  TrainParallelTest()
      : ds_(MakeMovieLensRandDataset(13, /*scale=*/0.05)),
        bench_ds_(MakeMovieLensRandDataset(17, /*scale=*/0.08)) {}

  KgagConfig BaseConfig() const {
    KgagConfig cfg;
    cfg.propagation.dim = 8;
    cfg.propagation.depth = 1;
    cfg.propagation.sample_size = 4;
    cfg.batch_size = 16;
    cfg.pairs_per_epoch = 64;
    cfg.select_by_validation = false;
    cfg.seed = 77;
    return cfg;
  }

  /// The hyper-parameters bench/bench_util.h's DefaultKgagConfig gives
  /// every table/figure bench, with a short epoch and no validation.
  static KgagConfig BenchConfig() {
    KgagConfig cfg;
    cfg.propagation.dim = 16;
    cfg.propagation.depth = 2;
    cfg.propagation.sample_size = 6;
    cfg.propagation.final_tanh = false;
    cfg.eval_tree_samples = 4;
    cfg.margin = 0.4;
    cfg.beta = 0.7;
    cfg.pairs_per_epoch = 96;
    cfg.select_by_validation = false;
    cfg.seed = 1234;
    return cfg;
  }

  std::vector<TrainInput> Inputs() const {
    return {{&ds_, BaseConfig(), "dim 8, depth 1"},
            {&bench_ds_, BenchConfig(), "bench config"}};
  }

  static Snapshot TrainFor(const GroupRecDataset& ds, const KgagConfig& cfg,
                           int epochs) {
    Result<std::unique_ptr<KgagModel>> model = KgagModel::Create(&ds, cfg);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    Rng rng(cfg.seed + 1);
    Snapshot snap;
    for (int e = 0; e < epochs; ++e) {
      snap.last_loss = (*model)->TrainEpoch(&rng);
    }
    ckpt::TrainingState state = (*model)->CaptureTrainingState(
        static_cast<uint64_t>(epochs), /*mid_epoch=*/false,
        /*batches_done=*/0, /*partial_loss=*/0.0, /*selector=*/nullptr);
    snap.params = std::move(state.params);
    snap.optimizer = std::move(state.optimizer);
    snap.rng = std::move(state.rng);
    snap.batcher = std::move(state.batcher);
    return snap;
  }

  static void ExpectIdentical(const Snapshot& a, const Snapshot& b,
                              const char* what) {
    EXPECT_EQ(a.params, b.params) << what << ": parameter bytes differ";
    EXPECT_EQ(a.optimizer, b.optimizer)
        << what << ": Adam moment bytes differ";
    EXPECT_EQ(a.rng, b.rng) << what << ": rng snapshot differs";
    EXPECT_EQ(a.batcher, b.batcher) << what << ": batcher state differs";
    EXPECT_EQ(a.last_loss, b.last_loss) << what << ": epoch loss differs";
  }

  GroupRecDataset ds_;
  GroupRecDataset bench_ds_;
};

TEST_F(TrainParallelTest, BitIdenticalAcrossThreadCounts) {
  for (TrainInput in : Inputs()) {
    SCOPED_TRACE(in.name);
    in.cfg.train_threads = 1;
    const Snapshot ref = TrainFor(*in.ds, in.cfg, /*epochs=*/3);

    in.cfg.train_threads = 2;
    ExpectIdentical(ref, TrainFor(*in.ds, in.cfg, 3), "2 threads vs 1");

    in.cfg.train_threads = 8;
    ExpectIdentical(ref, TrainFor(*in.ds, in.cfg, 3), "8 threads vs 1");
  }
}

TEST_F(TrainParallelTest, BitIdenticalWithArenaDisabled) {
  for (TrainInput in : Inputs()) {
    SCOPED_TRACE(in.name);
    const Snapshot arena_on = TrainFor(*in.ds, in.cfg, /*epochs=*/3);
    in.cfg.tape_arena = false;
    ExpectIdentical(arena_on, TrainFor(*in.ds, in.cfg, 3),
                    "heap tape vs arena tape");
  }
}

// The shard size is part of the numeric contract (like batch_size): the
// parallel path must honor whatever value the config pins, at any thread
// count. Different shard sizes may legitimately produce different bits —
// what must hold is thread-count independence at each size.
TEST_F(TrainParallelTest, BitIdenticalAcrossThreadsForOddShardSize) {
  KgagConfig cfg = BaseConfig();
  cfg.train_shard_size = 5;  // does not divide the batch size
  cfg.train_threads = 1;
  const Snapshot ref = TrainFor(ds_, cfg, /*epochs=*/2);
  cfg.train_threads = 4;
  ExpectIdentical(ref, TrainFor(ds_, cfg, 2), "4 threads vs 1, shard_size=5");
}

// The paper-protocol metrics must be reachable from a parallel-trained
// model exactly as from a serial one (scoring shares the parameters).
TEST_F(TrainParallelTest, ParallelTrainedModelScoresDeterministically) {
  KgagConfig cfg = BaseConfig();
  cfg.train_threads = 4;
  Result<std::unique_ptr<KgagModel>> a = KgagModel::Create(&ds_, cfg);
  Result<std::unique_ptr<KgagModel>> b = KgagModel::Create(&ds_, cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng_a(cfg.seed + 1), rng_b(cfg.seed + 1);
  (*a)->TrainEpoch(&rng_a);
  (*b)->TrainEpoch(&rng_b);
  const ItemId items[3] = {0, 1, 2};
  const std::vector<double> sa = (*a)->ScoreGroup(0, items);
  const std::vector<double> sb = (*b)->ScoreGroup(0, items);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
}

}  // namespace
}  // namespace kgag
