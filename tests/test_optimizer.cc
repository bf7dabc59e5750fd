#include "tensor/optimizer.h"

#include <gtest/gtest.h>

#include <sstream>

#include "tensor/tape.h"

namespace kgag {
namespace {

// Minimizes ||W - T||^2 for a fixed target T with the given optimizer.
double OptimizeQuadratic(Optimizer* opt, int steps) {
  Rng rng(3);
  ParameterStore store;
  Parameter* w = store.Create("w", 3, 3, Init::kXavierUniform, &rng);
  Tensor target{{1, 0, -1}, {0.5, 2, 0}, {-1, 0, 1}};
  double final_loss = 0;
  for (int s = 0; s < steps; ++s) {
    Tape tape;
    Var diff = tape.Sub(tape.Leaf(w), tape.Constant(target));
    Var loss = tape.Sum(tape.Mul(diff, diff));
    final_loss = tape.value(loss).item();
    tape.Backward(loss);
    opt->Step(&store, 0.0);
  }
  return final_loss;
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Sgd sgd(0.1);
  EXPECT_LT(OptimizeQuadratic(&sgd, 100), 1e-6);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Adam adam(0.05);
  EXPECT_LT(OptimizeQuadratic(&adam, 300), 1e-4);
}

TEST(SgdTest, SingleStepMatchesFormula) {
  ParameterStore store;
  Parameter* w = store.CreateZeros("w", 1, 2);
  w->value = Tensor{{1.0, 2.0}};
  w->grad = Tensor{{0.5, -1.0}};
  w->dense_touched = true;
  Sgd sgd(0.1);
  sgd.Step(&store, 0.0);
  EXPECT_NEAR(w->value.at(0, 0), 1.0 - 0.1 * 0.5, 1e-12);
  EXPECT_NEAR(w->value.at(0, 1), 2.0 + 0.1, 1e-12);
  // Gradients must be cleared by Step.
  EXPECT_EQ(w->grad.at(0, 0), 0.0);
  EXPECT_FALSE(w->dense_touched);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  ParameterStore store;
  Parameter* w = store.CreateZeros("w", 1, 1);
  w->value = Tensor{{2.0}};
  w->grad = Tensor{{0.0}};
  w->dense_touched = true;
  Sgd sgd(0.1);
  sgd.Step(&store, 0.5);  // grad += 0.5 * 2 = 1; w -= 0.1
  EXPECT_NEAR(w->value.item(), 1.9, 1e-12);
}

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // With bias correction, Adam's first update is ~lr * sign(grad).
  ParameterStore store;
  Parameter* w = store.CreateZeros("w", 1, 2);
  w->value = Tensor{{0.0, 0.0}};
  w->grad = Tensor{{3.0, -0.001}};
  w->dense_touched = true;
  Adam adam(0.01);
  adam.Step(&store, 0.0);
  EXPECT_NEAR(w->value.at(0, 0), -0.01, 1e-4);
  EXPECT_NEAR(w->value.at(0, 1), 0.01, 1e-4);
}

TEST(AdamTest, SparseRowsOnlyTouchedRowsMove) {
  ParameterStore store;
  Parameter* table = store.CreateZeros("emb", 4, 2);
  table->value = Tensor{{1, 1}, {1, 1}, {1, 1}, {1, 1}};
  table->grad.at(2, 0) = 1.0;
  table->grad.at(2, 1) = -1.0;
  table->touched_rows = {2};
  Adam adam(0.1);
  adam.Step(&store, 0.0);
  for (size_t r = 0; r < 4; ++r) {
    if (r == 2) {
      EXPECT_NE(table->value.at(r, 0), 1.0);
      EXPECT_NE(table->value.at(r, 1), 1.0);
    } else {
      EXPECT_EQ(table->value.at(r, 0), 1.0);
      EXPECT_EQ(table->value.at(r, 1), 1.0);
    }
  }
}

TEST(AdamTest, LazyBiasCorrectionPerRow) {
  // A row touched for the first time at step 10 must get the step-1 bias
  // correction, not step-10 (otherwise its first update is tiny).
  ParameterStore store;
  Parameter* table = store.CreateZeros("emb", 2, 1);
  Adam adam(0.01);
  for (int s = 0; s < 9; ++s) {
    table->grad.at(0, 0) = 1.0;
    table->touched_rows = {0};
    adam.Step(&store, 0.0);
  }
  const double row0_after9 = table->value.at(0, 0);
  EXPECT_LT(row0_after9, -0.05);  // ~ -0.09
  table->grad.at(1, 0) = 1.0;
  table->touched_rows = {1};
  adam.Step(&store, 0.0);
  EXPECT_NEAR(table->value.at(1, 0), -0.01, 1e-3);
}

TEST(AdamTest, StateRoundTripContinuesBitIdentically) {
  // Serialize Adam mid-run (moments, per-row step counts, global step),
  // restore into a fresh optimizer, and verify the next steps produce
  // bit-identical weights — required for exact checkpoint resume.
  Rng rng(5);
  ParameterStore store_a;
  Parameter* wa = store_a.Create("w", 4, 2, Init::kNormal01, &rng);
  Parameter* ta = store_a.CreateZeros("emb", 6, 2);
  Adam adam_a(0.01);
  for (int s = 0; s < 7; ++s) {
    wa->grad = Tensor(4, 2, 0.25 * (s + 1));
    wa->dense_touched = true;
    ta->grad.at(s % 6, 0) = 1.0;
    // Rows at different lazy step counts.
    ta->touched_rows = {static_cast<size_t>(s % 6)};
    adam_a.Step(&store_a, 1e-4);
  }

  std::ostringstream state(std::ios::binary);
  ASSERT_TRUE(adam_a.SaveState(&state).ok());

  ParameterStore store_b;
  Parameter* wb = store_b.CreateZeros("w", 4, 2);
  Parameter* tb = store_b.CreateZeros("emb", 6, 2);
  wb->value = wa->value;
  tb->value = ta->value;
  Adam adam_b(0.01);
  std::istringstream in(state.str(), std::ios::binary);
  ASSERT_TRUE(adam_b.LoadState(&in, store_b).ok());

  for (int s = 0; s < 5; ++s) {
    for (Parameter* w : {wa, wb}) {
      w->grad = Tensor(4, 2, -0.5);
      w->dense_touched = true;
    }
    for (Parameter* t : {ta, tb}) {
      t->grad.at(1, 1) = 2.0;
      t->touched_rows = {1};
    }
    adam_a.Step(&store_a, 1e-4);
    adam_b.Step(&store_b, 1e-4);
  }
  for (size_t i = 0; i < wa->value.size(); ++i) {
    ASSERT_EQ(wa->value.data()[i], wb->value.data()[i]) << i;
  }
  for (size_t i = 0; i < ta->value.size(); ++i) {
    ASSERT_EQ(ta->value.data()[i], tb->value.data()[i]) << i;
  }
}

TEST(AdamTest, LoadStateRejectsWrongShapesAndGarbage) {
  Rng rng(6);
  ParameterStore store;
  store.Create("w", 3, 3, Init::kNormal01, &rng);
  Adam adam(0.01);
  {
    Tape tape;
    Var loss = tape.Sum(tape.Leaf(store.at(0)));
    tape.Backward(loss);
    adam.Step(&store, 0.0);
  }
  std::ostringstream state(std::ios::binary);
  ASSERT_TRUE(adam.SaveState(&state).ok());

  // Same state against a differently-shaped store must be rejected.
  ParameterStore other;
  other.Create("w", 5, 5, Init::kNormal01, &rng);
  Adam adam2(0.01);
  std::istringstream in(state.str(), std::ios::binary);
  EXPECT_FALSE(adam2.LoadState(&in, other).ok());

  std::istringstream garbage(std::string("not an optimizer state"),
                             std::ios::binary);
  EXPECT_FALSE(adam2.LoadState(&garbage, store).ok());
}

TEST(SgdTest, StateRoundTripIsTagOnly) {
  // SGD is stateless; its Save/LoadState still validate the stream tag so
  // an Adam blob can't be silently fed to an SGD run.
  ParameterStore store;
  store.CreateZeros("w", 1, 1);
  Sgd sgd(0.1);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(sgd.SaveState(&out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_TRUE(sgd.LoadState(&in, store).ok());

  Adam adam(0.1);
  std::ostringstream adam_out(std::ios::binary);
  ASSERT_TRUE(adam.SaveState(&adam_out).ok());
  std::istringstream cross(adam_out.str(), std::ios::binary);
  EXPECT_FALSE(sgd.LoadState(&cross, store).ok());
}

TEST(ParameterStoreTest, ZeroGradsRespectsSparseTracking) {
  ParameterStore store;
  Parameter* p = store.CreateZeros("p", 3, 1);
  p->grad.at(1, 0) = 5.0;
  p->touched_rows = {1};
  store.ZeroGrads();
  EXPECT_EQ(p->grad.at(1, 0), 0.0);
  EXPECT_TRUE(p->touched_rows.empty());
}

TEST(ParameterStoreTest, TotalWeightsAndNorm) {
  Rng rng(1);
  ParameterStore store;
  store.Create("a", 2, 3, Init::kNormal01, &rng);
  store.Create("b", 4, 1, Init::kNormal01, &rng);
  EXPECT_EQ(store.TotalWeights(), 10u);
  EXPECT_GT(store.SquaredNorm(), 0.0);
}

TEST(InitializerTest, XavierBoundsRespected) {
  Rng rng(2);
  Tensor t(50, 50);
  Initialize(&t, Init::kXavierUniform, &rng);
  const double bound = std::sqrt(6.0 / 100.0);
  EXPECT_LE(t.AbsMax(), bound + 1e-12);
  EXPECT_GT(t.AbsMax(), bound * 0.5);  // actually fills the range
}

TEST(InitializerTest, ZerosAreZero) {
  Rng rng(2);
  Tensor t(3, 3, 9.0);
  Initialize(&t, Init::kZeros, &rng);
  EXPECT_EQ(t.SquaredNorm(), 0.0);
}

}  // namespace
}  // namespace kgag
