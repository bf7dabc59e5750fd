#include "models/attention.h"

#include <gtest/gtest.h>

#include "tensor/grad_check.h"

namespace kgag {
namespace {

constexpr int kDim = 4;
constexpr int kGroupSize = 3;

struct AttnCase {
  const char* name;
  bool use_sp;
  bool use_pi;
};

class AttentionTest : public ::testing::TestWithParam<AttnCase> {
 protected:
  AttentionTest() : rng_(31) {}
  Rng rng_;
  ParameterStore store_;
};

TEST_P(AttentionTest, TapeOutputShapeAndConvexity) {
  PreferenceAggregator agg(kDim, kGroupSize, GetParam().use_sp,
                           GetParam().use_pi, &store_, &rng_);
  Tape tape;
  Tensor members{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}};
  Var m = tape.Constant(members);
  Var item = tape.Constant(Tensor::Row({0.5, 0.5, -0.5, 0.2}));
  Var g = agg.AggregateOnTape(&tape, m, item);
  const Tensor& gv = tape.value(g);
  EXPECT_EQ(gv.rows(), 1u);
  EXPECT_EQ(gv.cols(), static_cast<size_t>(kDim));
  // Convex combination of one-hot members: coordinates in [0,1], sum 1.
  double sum = 0;
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_GE(gv.at(0, c), 0.0);
    EXPECT_LE(gv.at(0, c), 1.0);
    sum += gv.at(0, c);
  }
  EXPECT_NEAR(sum, 1.0, 1e-10);
  EXPECT_NEAR(gv.at(0, 3), 0.0, 1e-12);
}

TEST_P(AttentionTest, MultiCandidateMatchesSingleCandidateBitExactly) {
  // Evaluation aggregates P candidates in one pass over query-major member
  // rows; training aggregates one. Both must agree bit for bit.
  PreferenceAggregator agg(kDim, kGroupSize, GetParam().use_sp,
                           GetParam().use_pi, &store_, &rng_);
  Rng data_rng(5);
  const size_t p = 4;
  Tensor member_reps(p * kGroupSize, kDim);  // row q·L + i
  for (size_t x = 0; x < member_reps.size(); ++x) {
    member_reps[x] = data_rng.Normal(0, 1);
  }
  Tensor item_reps(p, kDim);
  for (size_t x = 0; x < item_reps.size(); ++x) {
    item_reps[x] = data_rng.Normal(0, 1);
  }

  Tape batch_tape;
  const Tensor batch = batch_tape.value(
      agg.AggregateOnTape(&batch_tape, batch_tape.Constant(member_reps),
                          batch_tape.Constant(item_reps)));
  ASSERT_EQ(batch.rows(), p);
  ASSERT_EQ(batch.cols(), static_cast<size_t>(kDim));

  for (size_t q = 0; q < p; ++q) {
    Tape tape;
    Tensor members(kGroupSize, kDim);
    for (int i = 0; i < kGroupSize; ++i) {
      members.SetRow(i, member_reps.RowAt(q * kGroupSize + i));
    }
    Var g = agg.AggregateOnTape(&tape, tape.Constant(members),
                                tape.Constant(item_reps.RowAt(q)));
    const Tensor& gv = tape.value(g);
    for (int c = 0; c < kDim; ++c) {
      EXPECT_EQ(batch.at(q, static_cast<size_t>(c)),
                gv.at(0, static_cast<size_t>(c)))
          << "candidate " << q << " dim " << c;
    }
  }
}

TEST_P(AttentionTest, GradientsMatchNumeric) {
  PreferenceAggregator agg(kDim, kGroupSize, GetParam().use_sp,
                           GetParam().use_pi, &store_, &rng_);
  // Extra parameter feeding member reps so we check both the attention
  // parameters and the gradients flowing to inputs.
  Parameter* input = store_.Create("input", kGroupSize, kDim,
                                   Init::kXavierUniform, &rng_);
  Parameter* item_param =
      store_.Create("item", 1, kDim, Init::kXavierUniform, &rng_);

  auto build = [&](Tape* tape) {
    Var m = tape->Leaf(input);
    Var item = tape->Leaf(item_param);
    Var g = agg.AggregateOnTape(tape, m, item);
    return tape->DotAll(g, item);
  };
  auto loss_fn = [&]() {
    Tape tape;
    return tape.value(build(&tape)).item();
  };
  auto backward_fn = [&]() {
    Tape tape;
    tape.Backward(build(&tape));
  };
  GradCheckReport report = CheckGradients(&store_, loss_fn, backward_fn);
  EXPECT_TRUE(report.ok(1e-4)) << report.worst_location
                               << " rel=" << report.max_rel_error;
}

TEST_P(AttentionTest, ExplainAlphaIsDistribution) {
  PreferenceAggregator agg(kDim, kGroupSize, GetParam().use_sp,
                           GetParam().use_pi, &store_, &rng_);
  Rng data_rng(7);
  Tensor members(kGroupSize, kDim);
  for (size_t x = 0; x < members.size(); ++x) {
    members[x] = data_rng.Normal(0, 1);
  }
  Tensor item(1, kDim);
  for (size_t x = 0; x < item.size(); ++x) item[x] = data_rng.Normal(0, 1);

  AttentionBreakdown b = agg.Explain(members, item);
  ASSERT_EQ(b.alpha.size(), static_cast<size_t>(kGroupSize));
  double sum = 0;
  for (double a : b.alpha) {
    EXPECT_GT(a, 0.0);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-10);
  if (!GetParam().use_sp) {
    for (double s : b.sp) EXPECT_EQ(s, 0.0);
  }
  if (!GetParam().use_pi) {
    for (double s : b.pi) EXPECT_EQ(s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, AttentionTest,
    ::testing::Values(AttnCase{"full", true, true},
                      AttnCase{"sp_only", true, false},
                      AttnCase{"pi_only", false, true},
                      AttnCase{"none", false, false}),
    [](const ::testing::TestParamInfo<AttnCase>& info) {
      return std::string(info.param.name);
    });

TEST(AttentionSpTest, SpPrefersAlignedMember) {
  // With SP only, a member whose representation matches the candidate
  // item must receive the largest influence — the paper's hypothesis that
  // interest in the candidate raises a member's voice.
  Rng rng(41);
  ParameterStore store;
  PreferenceAggregator agg(kDim, kGroupSize, /*use_sp=*/true,
                           /*use_pi=*/false, &store, &rng);
  Tensor members{{1, 0, 0, 0}, {0, 1, 0, 0}, {-1, 0, 0, 0}};
  Tensor item = Tensor::Row({1, 0, 0, 0});  // aligned with member 0
  AttentionBreakdown b = agg.Explain(members, item);
  EXPECT_GT(b.alpha[0], b.alpha[1]);
  EXPECT_GT(b.alpha[1], b.alpha[2]);
  EXPECT_GT(b.sp[0], b.sp[2]);
}

TEST(AttentionSizeTest, GroupSizeOneWorks) {
  Rng rng(43);
  ParameterStore store;
  PreferenceAggregator agg(kDim, /*group_size=*/1, true, true, &store, &rng);
  Tape tape;
  Var m = tape.Constant(Tensor{{1, 2, 3, 4}});
  Var item = tape.Constant(Tensor::Row({1, 0, 0, 0}));
  Var g = agg.AggregateOnTape(&tape, m, item);
  // Singleton group: the group rep IS the member rep.
  EXPECT_TRUE(AllClose(tape.value(g), Tensor{{1, 2, 3, 4}}));
}

TEST(AttentionSizeTest, LargerGroupSizes) {
  for (int l : {2, 5, 8}) {
    Rng rng(47 + l);
    ParameterStore store;
    PreferenceAggregator agg(kDim, l, true, true, &store, &rng);
    Tape tape;
    Tensor members(l, kDim);
    for (size_t x = 0; x < members.size(); ++x) {
      members[x] = rng.Normal(0, 1);
    }
    Var m = tape.Constant(members);
    Var item = tape.Constant(Tensor::Row({0.5, -0.5, 0.5, -0.5}));
    Var g = agg.AggregateOnTape(&tape, m, item);
    EXPECT_EQ(tape.value(g).cols(), static_cast<size_t>(kDim)) << l;
  }
}

}  // namespace
}  // namespace kgag
