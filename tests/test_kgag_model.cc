#include "models/kgag_model.h"

#include <gtest/gtest.h>

#include <numeric>

#include "baselines/trivial.h"
#include "eval/ranking_evaluator.h"
#include "serve/frozen_model.h"
#include "test_util.h"

namespace kgag {
namespace {

KgagConfig FastConfig() {
  KgagConfig cfg;
  cfg.propagation.dim = 8;
  cfg.propagation.depth = 2;
  cfg.propagation.sample_size = 2;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  cfg.seed = 17;
  return cfg;
}

TEST(KgagModelTest, CreateRejectsNull) {
  auto r = KgagModel::Create(nullptr, FastConfig());
  EXPECT_FALSE(r.ok());
}

TEST(KgagModelTest, NamesReflectAblations) {
  KgagConfig cfg = FastConfig();
  EXPECT_EQ(cfg.Describe(), "KGAG");
  cfg.use_kg = false;
  EXPECT_EQ(cfg.Describe(), "KGAG-KG");
  cfg.use_kg = true;
  cfg.use_sp = false;
  EXPECT_EQ(cfg.Describe(), "KGAG-SP");
  cfg.use_sp = true;
  cfg.use_pi = false;
  EXPECT_EQ(cfg.Describe(), "KGAG-PI");
  cfg.use_pi = true;
  cfg.group_loss = GroupLossKind::kBpr;
  EXPECT_EQ(cfg.Describe(), "KGAG (BPR)");
}

TEST(KgagModelTest, ScoreGroupReturnsOnePerItem) {
  GroupRecDataset ds = testing_util::TinyRand();
  auto model = KgagModel::Create(&ds, FastConfig());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::vector<ItemId> items{0, 1, 2, 3, 4};
  auto scores = (*model)->ScoreGroup(0, items);
  EXPECT_EQ(scores.size(), items.size());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(KgagModelTest, ScoresAreDeterministicAcrossCalls) {
  GroupRecDataset ds = testing_util::TinyRand();
  auto model = KgagModel::Create(&ds, FastConfig());
  ASSERT_TRUE(model.ok());
  std::vector<ItemId> items{0, 1, 2};
  auto a = (*model)->ScoreGroup(1, items);
  auto b = (*model)->ScoreGroup(1, items);
  EXPECT_EQ(a, b);  // eval trees are cached, scoring is pure
}

TEST(KgagModelTest, TrainingReducesLoss) {
  GroupRecDataset ds = testing_util::TinyRand();
  KgagConfig cfg = FastConfig();
  cfg.epochs = 6;
  auto model = KgagModel::Create(&ds, cfg);
  ASSERT_TRUE(model.ok());
  (*model)->Fit();
  const auto& losses = (*model)->epoch_losses();
  ASSERT_EQ(losses.size(), 6u);
  // The loss over the last two epochs must be below the first epoch.
  EXPECT_LT((losses[4] + losses[5]) / 2, losses[0]);
}

TEST(KgagModelTest, SameSeedSameTraining) {
  GroupRecDataset ds = testing_util::TinyRand();
  auto m1 = KgagModel::Create(&ds, FastConfig());
  auto m2 = KgagModel::Create(&ds, FastConfig());
  ASSERT_TRUE(m1.ok() && m2.ok());
  (*m1)->Fit();
  (*m2)->Fit();
  EXPECT_EQ((*m1)->epoch_losses(), (*m2)->epoch_losses());
  std::vector<ItemId> items{0, 1, 2, 3};
  EXPECT_EQ((*m1)->ScoreGroup(0, items), (*m2)->ScoreGroup(0, items));
}

TEST(KgagModelTest, TrainedModelBeatsRandomRanking) {
  // A slightly larger corpus than the smoke tests: ~20 test groups are
  // too noisy for a reliable trained-vs-random comparison.
  GroupRecDataset ds = MakeMovieLensRandDataset(7, 0.15);
  KgagConfig cfg = FastConfig();
  cfg.epochs = 10;
  cfg.propagation.sample_size = 4;
  cfg.propagation.final_tanh = false;
  auto model = KgagModel::Create(&ds, cfg);
  ASSERT_TRUE(model.ok());
  (*model)->Fit();

  RankingEvaluator eval(&ds, 5);
  EvalResult trained = eval.EvaluateTest(model->get());
  RandomRecommender random(99);
  EvalResult rnd = eval.EvaluateTest(&random);
  EXPECT_GT(trained.hit_at_k, rnd.hit_at_k);
}

TEST(KgagModelTest, AblationsConstructAndTrain) {
  GroupRecDataset ds = testing_util::TinyRand();
  for (int variant = 0; variant < 4; ++variant) {
    KgagConfig cfg = FastConfig();
    cfg.epochs = 1;
    switch (variant) {
      case 0: cfg.use_kg = false; break;
      case 1: cfg.use_sp = false; break;
      case 2: cfg.use_pi = false; break;
      case 3: cfg.group_loss = GroupLossKind::kBpr; break;
    }
    auto model = KgagModel::Create(&ds, cfg);
    ASSERT_TRUE(model.ok()) << variant;
    (*model)->Fit();
    std::vector<ItemId> items{0, 1, 2};
    auto scores = (*model)->ScoreGroup(0, items);
    for (double s : scores) EXPECT_TRUE(std::isfinite(s)) << variant;
  }
}

TEST(KgagModelTest, GraphSageAggregatorWorks) {
  GroupRecDataset ds = testing_util::TinyRand();
  KgagConfig cfg = FastConfig();
  cfg.propagation.aggregator = AggregatorKind::kGraphSage;
  cfg.epochs = 1;
  auto model = KgagModel::Create(&ds, cfg);
  ASSERT_TRUE(model.ok());
  (*model)->Fit();
  auto scores = (*model)->ScoreGroup(0, std::vector<ItemId>{0, 1});
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(KgagModelTest, ExplanationIsDistributionWithBreakdown) {
  GroupRecDataset ds = testing_util::TinyRand();
  auto model = KgagModel::Create(&ds, FastConfig());
  ASSERT_TRUE(model.ok());
  (*model)->Fit();
  GroupExplanation ex = (*model)->ExplainGroup(0, ds.split.test.empty()
                                                      ? 0
                                                      : ds.split.test[0].item);
  ASSERT_EQ(ex.members.size(), static_cast<size_t>(ds.group_size));
  ASSERT_EQ(ex.attention.alpha.size(), ex.members.size());
  double sum = std::accumulate(ex.attention.alpha.begin(),
                               ex.attention.alpha.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GE(ex.prediction, 0.0);
  EXPECT_LE(ex.prediction, 1.0);
}

TEST(KgagModelTest, PredictGroupItemMatchesScoreGroup) {
  GroupRecDataset ds = testing_util::TinyRand();
  auto model = KgagModel::Create(&ds, FastConfig());
  ASSERT_TRUE(model.ok());
  const double p = (*model)->PredictGroupItem(0, 1);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(KgagModelTest, CollaborativeKgHasUserNodes) {
  GroupRecDataset ds = testing_util::TinyRand();
  auto model = KgagModel::Create(&ds, FastConfig());
  ASSERT_TRUE(model.ok());
  const CollaborativeKg& ckg = (*model)->ckg();
  EXPECT_EQ(ckg.graph.num_entities(), ds.num_entities + ds.num_users);
  EXPECT_EQ(ckg.num_users, ds.num_users);
  // Users with interactions must not be isolated in the CKG.
  int connected = 0;
  for (UserId u = 0; u < ds.num_users; ++u) {
    if (ds.user_item.RowDegree(u) > 0 &&
        ckg.graph.Degree(ckg.UserNode(u)) > 0) {
      ++connected;
    }
  }
  EXPECT_GT(connected, 0);
}


// Forward pin: literals recorded from the untrained model at a fixed seed
// (dim 4, depth 2, K 2, TinyRand). Scoring, freezing and explanations all
// run the model's forward definition, so any change to propagation or
// attention arithmetic beyond the last few bits shows up here.
struct ForwardPin {
  AggregatorKind aggregator;
  std::vector<double> scores;      // ScoreGroup(0, items 0..7)
  std::vector<double> user_rows;   // frozen user table, rows 0..3
  std::vector<double> alpha;       // ExplainGroup(0, 3) α
};

void ExpectPinned(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << what << "[" << i << "]";
  }
}

TEST(KgagForwardPinTest, ScoresFrozenRowsAndAttentionMatchLiterals) {
  const ForwardPin pins[] = {
      {AggregatorKind::kGcn,
       {-0.0064580234717072759, -0.00090268005964158431,
        0.0016104485920496034, 0.049957013663904398, -0.0056882423658252699,
        0.0045809033484201754, 0.0081311464324921, 0.0068797543163385232},
       {0.052320565472930076, 0.17570237996444094, 0.14224755134721689,
        0.14915956139841785, -0.27326169647261705, 0.081612574819395226,
        -0.1100222303110403, 0.42005918594278679, -0.098068485442264208,
        0.023893430010009903, -0.036420729267517063, 0.16437094198162919,
        0.018687462799634347, 0.0099341633891030737, 0.013532732293152147,
        -0.001317160282651108},
       {0.15217548009343998, 0.12762933384451225, 0.12666739815383557,
        0.12230171985616789, 0.1165961759536641, 0.12045029455186841,
        0.12420161134488955, 0.1099779862016223}},
      {AggregatorKind::kGraphSage,
       {0.013601810192221578, 0.0058305440078242447, 0.019293559535051481,
        0.035460224517204569, 0.0047625298697715332, 0.0077678766328299464,
        0.011274023465745448, 0.010354748840157421},
       {-0.095260971056392418, 0.19626170725451852, 0.023705919374939505,
        -0.0072640213939859071, -0.1895866186997234, 0.31714862404217758,
        0.10611289219259792, 0.16716807012659568, -0.045790150652249284,
        0.13304012793999409, 0.067399284629393555, 0.089292893693748709,
        0.0036086893392889641, 0.024771507317922662, -0.037249851046352582,
        -0.038739043752366725},
       {0.13579356281546787, 0.12803446407252181, 0.12808361615950326,
        0.12411244402478883, 0.11923732665631101, 0.11989170931230839,
        0.121965788978024, 0.12288108798107471}},
  };
  GroupRecDataset ds = testing_util::TinyRand();
  for (const ForwardPin& pin : pins) {
    SCOPED_TRACE(pin.aggregator == AggregatorKind::kGcn ? "gcn" : "sage");
    KgagConfig cfg;
    cfg.propagation.dim = 4;
    cfg.propagation.depth = 2;
    cfg.propagation.sample_size = 2;
    cfg.propagation.aggregator = pin.aggregator;
    cfg.seed = 17;
    auto model = KgagModel::Create(&ds, cfg);
    ASSERT_TRUE(model.ok()) << model.status().ToString();

    const std::vector<ItemId> items{0, 1, 2, 3, 4, 5, 6, 7};
    ExpectPinned((*model)->ScoreGroup(0, items), pin.scores, "score");

    Result<serve::FrozenModel> frozen = serve::FreezeKgagModel(model->get());
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    std::vector<double> rows;
    for (size_t r = 0; r < 4; ++r) {
      for (size_t c = 0; c < 4; ++c) rows.push_back(frozen->user_emb.at(r, c));
    }
    ExpectPinned(rows, pin.user_rows, "user_row");

    ExpectPinned((*model)->ExplainGroup(0, 3).attention.alpha, pin.alpha,
                 "alpha");
  }
}

}  // namespace
}  // namespace kgag
