#include "tensor/tape.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tensor/grad_check.h"
#include "tensor/parameter.h"

namespace kgag {
namespace {

// ---- Forward-value tests ----------------------------------------------------

class TapeForwardTest : public ::testing::Test {
 protected:
  TapeForwardTest() : rng_(1) {}
  Rng rng_;
  ParameterStore store_;
  Tape tape_;
};

TEST_F(TapeForwardTest, ConstantHoldsValue) {
  Var c = tape_.Constant(Tensor{{1, 2}, {3, 4}});
  EXPECT_EQ(tape_.value(c).at(1, 0), 3.0);
}

TEST_F(TapeForwardTest, GatherSelectsRows) {
  Parameter* p = store_.CreateZeros("t", 4, 2);
  p->value = Tensor{{0, 1}, {10, 11}, {20, 21}, {30, 31}};
  Var g = tape_.Gather(p, {2, 0, 2});
  EXPECT_EQ(tape_.value(g).rows(), 3u);
  EXPECT_EQ(tape_.value(g).at(0, 1), 21.0);
  EXPECT_EQ(tape_.value(g).at(1, 0), 0.0);
  EXPECT_EQ(tape_.value(g).at(2, 0), 20.0);
}

TEST_F(TapeForwardTest, SoftmaxRowsSumToOne) {
  Var x = tape_.Constant(Tensor{{1, 2, 3}, {-1, 0, 5}});
  Var y = tape_.SoftmaxRows(x);
  const Tensor& v = tape_.value(y);
  for (size_t r = 0; r < 2; ++r) {
    Scalar sum = 0;
    for (size_t c = 0; c < 3; ++c) {
      sum += v.at(r, c);
      EXPECT_GT(v.at(r, c), 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Monotone in the input.
  EXPECT_GT(v.at(0, 2), v.at(0, 0));
}

TEST_F(TapeForwardTest, SoftmaxIsShiftInvariantAndStable) {
  Var a = tape_.SoftmaxRows(tape_.Constant(Tensor{{1000.0, 1001.0}}));
  // Copy: value() references are invalidated by subsequent op creation.
  const Tensor v = tape_.value(a);
  EXPECT_FALSE(std::isnan(v.at(0, 0)));
  EXPECT_NEAR(v.at(0, 0) + v.at(0, 1), 1.0, 1e-12);
  Var b = tape_.SoftmaxRows(tape_.Constant(Tensor{{0.0, 1.0}}));
  EXPECT_NEAR(tape_.value(b).at(0, 1), v.at(0, 1), 1e-12);
}

TEST_F(TapeForwardTest, ReluSigmoidTanhSoftplusValues) {
  Var x = tape_.Constant(Tensor{{-2, 0, 2}});
  EXPECT_EQ(tape_.value(tape_.Relu(x)).at(0, 0), 0.0);
  EXPECT_EQ(tape_.value(tape_.Relu(x)).at(0, 2), 2.0);
  EXPECT_NEAR(tape_.value(tape_.Sigmoid(x)).at(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(tape_.value(tape_.Tanh(x)).at(0, 2), std::tanh(2.0), 1e-12);
  EXPECT_NEAR(tape_.value(tape_.Softplus(x)).at(0, 1), std::log(2.0), 1e-12);
}

TEST_F(TapeForwardTest, SoftplusStableForLargeInputs) {
  Var x = tape_.Constant(Tensor{{-800.0, 800.0}});
  const Tensor& y = tape_.value(tape_.Softplus(x));
  EXPECT_NEAR(y.at(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(y.at(0, 1), 800.0, 1e-9);
}

TEST_F(TapeForwardTest, ReductionsAndRowOps) {
  Var x = tape_.Constant(Tensor{{1, 2}, {3, 4}});
  EXPECT_EQ(tape_.value(tape_.Sum(x)).item(), 10.0);
  EXPECT_EQ(tape_.value(tape_.Mean(x)).item(), 2.5);
  EXPECT_TRUE(AllClose(tape_.value(tape_.SumRows(x)), Tensor{{4, 6}}));
  EXPECT_TRUE(AllClose(tape_.value(tape_.MeanRows(x)), Tensor{{2, 3}}));
  EXPECT_EQ(tape_.value(tape_.MinAll(x)).item(), 1.0);
  EXPECT_EQ(tape_.value(tape_.MaxAll(x)).item(), 4.0);
}

TEST_F(TapeForwardTest, RowDotComputesPerRow) {
  Var a = tape_.Constant(Tensor{{1, 2}, {3, 4}});
  Var b = tape_.Constant(Tensor{{5, 6}, {7, 8}});
  const Tensor& v = tape_.value(tape_.RowDot(a, b));
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_EQ(v.cols(), 1u);
  EXPECT_EQ(v.at(0, 0), 17.0);
  EXPECT_EQ(v.at(1, 0), 53.0);
}

TEST_F(TapeForwardTest, ConcatAndSlice) {
  Var a = tape_.Constant(Tensor{{1, 2}});
  Var b = tape_.Constant(Tensor{{3, 4, 5}});
  const Tensor& cat = tape_.value(tape_.ConcatCols({a, b}));
  EXPECT_EQ(cat.cols(), 5u);
  EXPECT_EQ(cat.at(0, 4), 5.0);

  Var c = tape_.Constant(Tensor{{1, 2}, {3, 4}});
  const Tensor& rows = tape_.value(tape_.ConcatRows({c, a}));
  EXPECT_EQ(rows.rows(), 3u);
  EXPECT_EQ(rows.at(2, 1), 2.0);

  EXPECT_TRUE(AllClose(tape_.value(tape_.SliceRow(c, 1)), Tensor{{3, 4}}));
}

TEST_F(TapeForwardTest, ReshapeAndRepeat) {
  Var x = tape_.Constant(Tensor{{1, 2, 3, 4}});
  const Tensor& r = tape_.value(tape_.Reshape(x, 2, 2));
  EXPECT_EQ(r.at(1, 0), 3.0);
  const Tensor& rep = tape_.value(tape_.RepeatRows(x, 3));
  EXPECT_EQ(rep.rows(), 3u);
  EXPECT_EQ(rep.at(2, 3), 4.0);
  // Multi-row input: each row repeats in place, out[r*n + j] = a[r].
  Var m = tape_.Constant(Tensor{{1, 2}, {3, 4}});
  EXPECT_TRUE(AllClose(tape_.value(tape_.RepeatRows(m, 2)),
                       Tensor{{1, 2}, {1, 2}, {3, 4}, {3, 4}}));
}

TEST_F(TapeForwardTest, RowsGathersFromANode) {
  Var m = tape_.Constant(Tensor{{1, 2}, {3, 4}, {5, 6}});
  const size_t idx[] = {2, 0, 2};
  EXPECT_TRUE(AllClose(tape_.value(tape_.Rows(m, idx)),
                       Tensor{{5, 6}, {1, 2}, {5, 6}}));
}

TEST_F(TapeForwardTest, SegmentWeightedSumRows) {
  // 2 segments of K=2 neighbors, d=2.
  Var w = tape_.Constant(Tensor{{0.25, 0.75}, {1.0, 0.0}});
  Var v = tape_.Constant(Tensor{{1, 0}, {0, 1}, {2, 2}, {3, 3}});
  const Tensor& out = tape_.value(tape_.SegmentWeightedSumRows(w, v));
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_NEAR(out.at(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(out.at(0, 1), 0.75, 1e-12);
  EXPECT_NEAR(out.at(1, 0), 2.0, 1e-12);
}

TEST_F(TapeForwardTest, MatMulAgainstTensorHelper) {
  Parameter* a = store_.CreateZeros("a", 2, 3);
  Parameter* b = store_.CreateZeros("b", 3, 2);
  Initialize(&a->value, Init::kXavierUniform, &rng_);
  Initialize(&b->value, Init::kXavierUniform, &rng_);
  Var va = tape_.Leaf(a);
  Var vb = tape_.Leaf(b);
  EXPECT_TRUE(
      AllClose(tape_.value(tape_.MatMul(va, vb)), MatMul(a->value, b->value)));
}

// ---- Gradient checks ---------------------------------------------------------

// Each case builds a scalar loss from two generic parameter matrices; the
// numerical checker perturbs every weight.
struct GradCase {
  const char* name;
  // a: 3x4, b: 4x2 parameters.
  std::function<Var(Tape*, Parameter*, Parameter*)> build;
};

class TapeGradTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(TapeGradTest, AnalyticMatchesNumeric) {
  Rng rng(99);
  ParameterStore store;
  Parameter* a = store.Create("a", 3, 4, Init::kXavierUniform, &rng);
  Parameter* b = store.Create("b", 4, 2, Init::kXavierUniform, &rng);
  const auto& build = GetParam().build;

  auto loss_fn = [&]() {
    Tape tape;
    return tape.value(build(&tape, a, b)).item();
  };
  auto backward_fn = [&]() {
    Tape tape;
    tape.Backward(build(&tape, a, b));
  };
  GradCheckReport report = CheckGradients(&store, loss_fn, backward_fn);
  EXPECT_TRUE(report.ok(1e-4)) << GetParam().name << ": "
                               << report.worst_location
                               << " rel=" << report.max_rel_error;
}

const GradCase kGradCases[] = {
    {"matmul_sum",
     [](Tape* t, Parameter* a, Parameter* b) {
       return t->Sum(t->MatMul(t->Leaf(a), t->Leaf(b)));
     }},
    {"add_sub_mul",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->Leaf(a);
       Var y = t->MatMul(t->Leaf(a), t->Leaf(b));  // 3x2
       Var z = t->MatMul(y, t->Transpose(t->Leaf(b)));  // 3x4
       return t->Sum(t->Mul(t->Sub(t->Add(x, z), x), z));
     }},
    {"sigmoid_mean",
     [](Tape* t, Parameter* a, Parameter* b) {
       return t->Mean(t->Sigmoid(t->MatMul(t->Leaf(a), t->Leaf(b))));
     }},
    {"tanh_sum",
     [](Tape* t, Parameter* a, Parameter* b) {
       return t->Sum(t->Tanh(t->MatMul(t->Leaf(a), t->Leaf(b))));
     }},
    {"softplus",
     [](Tape* t, Parameter* a, Parameter* b) {
       return t->Sum(t->Softplus(t->MatMul(t->Leaf(a), t->Leaf(b))));
     }},
    {"softmax_weighted",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var scores = t->SoftmaxRows(t->MatMul(t->Leaf(a), t->Leaf(b)));
       Var w = t->Constant(Tensor{{1, -2}, {0.5, 1}, {2, 0}});
       return t->Sum(t->Mul(scores, w));
     }},
    {"rowdot",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->MatMul(t->Leaf(a), t->Leaf(b));  // 3x2
       Var y = t->MatMul(t->Leaf(a), t->Leaf(b));
       return t->Sum(t->RowDot(x, t->Sigmoid(y)));
     }},
    {"concat_cols",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->MatMul(t->Leaf(a), t->Leaf(b));       // 3x2
       Var cat = t->ConcatCols({x, t->Leaf(a)});        // 3x6
       return t->Mean(t->Tanh(cat));
     }},
    {"concat_rows_slice",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->MatMul(t->Leaf(a), t->Leaf(b));  // 3x2
       Var r0 = t->SliceRow(x, 0);
       Var r2 = t->SliceRow(x, 2);
       Var stack = t->ConcatRows({r0, r2, r0});
       return t->Sum(t->Sigmoid(stack));
     }},
    {"reshape_repeat",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->MatMul(t->Leaf(a), t->Leaf(b));   // 3x2
       Var flat = t->Reshape(x, 1, 6);
       Var rep = t->RepeatRows(flat, 4);            // 4x6
       return t->Mean(t->Mul(rep, rep));
     }},
    {"repeat_rows_multi",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->MatMul(t->Leaf(a), t->Leaf(b));  // 3x2
       Var rep = t->RepeatRows(x, 3);              // 9x2
       Var w = t->Constant(Tensor{{1, -1}, {0.5, 2}, {-0.3, 0.7},
                                  {2, 0.1}, {-1, 1}, {0.4, -0.6},
                                  {1.5, 0.2}, {-0.8, 0.9}, {0.3, 0.3}});
       return t->Sum(t->Tanh(t->Mul(rep, w)));
     }},
    {"rows",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->MatMul(t->Leaf(a), t->Leaf(b));  // 3x2
       const size_t idx[] = {2, 0, 2, 1};          // repeats: grads add
       Var picked = t->Rows(x, idx);                // 4x2
       Var w = t->Constant(Tensor{{1, -1}, {0.5, 2}, {-0.3, 0.7}, {2, 0.1}});
       return t->Sum(t->Sigmoid(t->Mul(picked, w)));
     }},
    {"segment_weighted_sum",
     [](Tape* t, Parameter* a, Parameter* b) {
       // weights from a (3x4 -> softmax), values from gathered b rows.
       Var w = t->SoftmaxRows(t->Leaf(a));            // 3x4
       Var vals = t->ConcatRows({t->Leaf(b), t->Leaf(b), t->Leaf(b)});
       Var agg = t->SegmentWeightedSumRows(w, vals);  // 3x2
       return t->Sum(t->Tanh(agg));
     }},
    {"add_row_broadcast",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var bias = t->SliceRow(t->Transpose(t->Leaf(b)), 0);  // 1x4
       return t->Sum(t->Sigmoid(t->AddRowBroadcast(t->Leaf(a), bias)));
     }},
    {"relu_composite",
     [](Tape* t, Parameter* a, Parameter* b) {
       // Shift away from 0 so finite differences don't straddle the kink.
       Var x = t->AddScalar(t->MatMul(t->Leaf(a), t->Leaf(b)), 0.37);
       return t->Sum(t->Relu(x));
     }},
    {"log_of_sigmoid",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->Sigmoid(t->MatMul(t->Leaf(a), t->Leaf(b)));
       return t->Mean(t->Log(x));
     }},
    {"min_max",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->MatMul(t->Leaf(a), t->Leaf(b));
       return t->Add(t->MinAll(x), t->ScalarMul(t->MaxAll(x), 0.5));
     }},
    {"scalar_ops",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var x = t->MatMul(t->Leaf(a), t->Leaf(b));
       return t->Mean(t->AddScalar(t->ScalarMul(t->Neg(x), 1.7), 0.3));
     }},
    {"gather",
     [](Tape* t, Parameter* a, Parameter* b) {
       Var rows = t->Gather(a, {0, 2, 2});  // repeated row: grads must add
       return t->Sum(t->Sigmoid(t->MatMul(rows, t->Leaf(b))));
     }},
};

INSTANTIATE_TEST_SUITE_P(AllOps, TapeGradTest,
                         ::testing::ValuesIn(kGradCases),
                         [](const ::testing::TestParamInfo<GradCase>&
                                param_info) {
                           return std::string(param_info.param.name);
                         });

TEST(TapeBackwardTest, GradAccumulatesOverMultiplePasses) {
  Rng rng(5);
  ParameterStore store;
  Parameter* p = store.Create("p", 2, 2, Init::kXavierUniform, &rng);
  {
    Tape tape;
    tape.Backward(tape.Sum(tape.Leaf(p)));
  }
  Tensor after_one = p->grad;
  {
    Tape tape;
    tape.Backward(tape.Sum(tape.Leaf(p)));
  }
  Tensor doubled = after_one;
  doubled.Scale(2.0);
  EXPECT_TRUE(AllClose(p->grad, doubled));
}

TEST(TapeBackwardTest, GatherMarksTouchedRowsOnly) {
  Rng rng(5);
  ParameterStore store;
  Parameter* p = store.Create("p", 5, 2, Init::kXavierUniform, &rng);
  Tape tape;
  tape.Backward(tape.Sum(tape.Gather(p, {1, 3})));
  EXPECT_FALSE(p->dense_touched);
  EXPECT_EQ(p->touched_rows.size(), 2u);
  EXPECT_TRUE(p->touched_rows.count(1));
  EXPECT_TRUE(p->touched_rows.count(3));
  EXPECT_EQ(p->grad.at(0, 0), 0.0);
  EXPECT_EQ(p->grad.at(1, 0), 1.0);
}

TEST(TapeBackwardTest, ClearInvalidatesAndReleases) {
  Tape tape;
  Var c = tape.Constant(Tensor::Scalar1(1.0));
  (void)c;
  EXPECT_GT(tape.num_nodes(), 0u);
  tape.Clear();
  EXPECT_EQ(tape.num_nodes(), 0u);
}

// SegmentWeightedSumRows at segment boundaries: the gather routes
// distinct table rows to the first and last slot of each segment, so a
// backward indexing bug (off-by-one on i*K or i*K+K-1) shows up as a
// finite-difference mismatch on those rows specifically.
TEST(TapeSegmentBoundaryTest, GradientsAtSegmentBoundaries) {
  Rng rng(17);
  ParameterStore store;
  Parameter* w = store.Create("w", 3, 4, Init::kXavierUniform, &rng);
  Parameter* table = store.Create("table", 4, 2, Init::kXavierUniform, &rng);
  // 3 segments x K=4 values; boundary slots (k=0, k=3) of each segment
  // pull different rows, and row 3 appears at both kinds of boundary.
  const std::vector<size_t> rows = {3, 0, 1, 2,   // segment 0
                                    0, 1, 2, 3,   // segment 1
                                    2, 3, 0, 1};  // segment 2

  auto build = [&](Tape* t) {
    Var weights = t->Leaf(w);  // raw weights: negative entries included
    Var values = t->Gather(table, rows);
    return t->Sum(t->Tanh(t->SegmentWeightedSumRows(weights, values)));
  };
  auto loss_fn = [&]() {
    Tape tape;
    return tape.value(build(&tape)).item();
  };
  auto backward_fn = [&]() {
    Tape tape;
    tape.Backward(build(&tape));
  };
  GradCheckReport report = CheckGradients(&store, loss_fn, backward_fn);
  EXPECT_TRUE(report.ok(1e-4))
      << report.worst_location << " rel=" << report.max_rel_error;
}

// ---- Arena behaviour --------------------------------------------------------

class TapeArenaTest : public ::testing::Test {
 protected:
  // One forward+backward pass with a size-dependent graph shape.
  static void BuildAndBackward(Tape* tape, Parameter* p, size_t rows) {
    std::vector<size_t> idx(rows);
    for (size_t i = 0; i < rows; ++i) idx[i] = (i * 7) % p->value.rows();
    Var g = tape->Gather(p, idx);
    Var h = tape->Sigmoid(tape->MatMul(g, tape->Transpose(g)));
    tape->Backward(tape->Sum(h));
  }
};

TEST_F(TapeArenaTest, ClearReusesCapacityAcrossVaryingShapes) {
  Rng rng(3);
  ParameterStore store;
  Parameter* p = store.Create("p", 32, 8, Init::kXavierUniform, &rng);
  Tape tape;
  // Warm up with the largest shape, then cycle smaller/odd-sized graphs:
  // the arena must serve them all from the retained block.
  BuildAndBackward(&tape, p, 24);
  store.ZeroGrads();
  tape.Clear();
  EXPECT_EQ(tape.arena().bytes_in_use(), 0u);
  const size_t warm_capacity = tape.arena().capacity();
  const size_t warm_blocks = tape.arena().block_count();
  for (int cycle = 0; cycle < 10; ++cycle) {
    BuildAndBackward(&tape, p, 4 + (static_cast<size_t>(cycle) * 7) % 21);
    store.ZeroGrads();
    tape.Clear();
    EXPECT_EQ(tape.arena().bytes_in_use(), 0u);
  }
  EXPECT_EQ(tape.arena().capacity(), warm_capacity);
  EXPECT_EQ(tape.arena().block_count(), warm_blocks);
}

TEST_F(TapeArenaTest, ArenaAndHeapTapesAgreeBitwise) {
  Rng rng(9);
  ParameterStore store;
  Parameter* p = store.Create("p", 16, 8, Init::kXavierUniform, &rng);

  Tape arena_tape(/*use_arena=*/true);
  BuildAndBackward(&arena_tape, p, 10);
  const Tensor arena_grad = p->grad;  // copy lands on the heap
  store.ZeroGrads();

  Tape heap_tape(/*use_arena=*/false);
  BuildAndBackward(&heap_tape, p, 10);
  ASSERT_EQ(arena_grad.rows(), p->grad.rows());
  for (size_t i = 0; i < arena_grad.size(); ++i) {
    EXPECT_EQ(arena_grad[i], p->grad[i]) << "at " << i;
  }
}

// A reused (warm) tape must produce the same bits as a fresh one: arena
// reuse may not leak state between examples.
TEST_F(TapeArenaTest, WarmTapeMatchesFreshTape) {
  Rng rng(21);
  ParameterStore store;
  Parameter* p = store.Create("p", 16, 8, Init::kXavierUniform, &rng);

  Tape warm;
  for (size_t rows = 3; rows <= 12; rows += 3) {
    BuildAndBackward(&warm, p, rows);
    store.ZeroGrads();
    warm.Clear();
  }
  BuildAndBackward(&warm, p, 7);
  const Tensor warm_grad = p->grad;
  store.ZeroGrads();

  Tape fresh;
  BuildAndBackward(&fresh, p, 7);
  for (size_t i = 0; i < warm_grad.size(); ++i) {
    EXPECT_EQ(warm_grad[i], p->grad[i]) << "at " << i;
  }
}

}  // namespace
}  // namespace kgag
