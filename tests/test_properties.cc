// Randomized property tests: invariants that must hold for arbitrary
// (seeded) inputs, swept over seeds with TEST_P. These complement the
// example-based suites with breadth.
#include <gtest/gtest.h>

#include <numeric>

#include "data/synthetic/group_builder.h"
#include "data/synthetic/movielens_gen.h"
#include "eval/metrics.h"
#include "kg/neighbor_sampler.h"
#include "models/attention.h"
#include "models/losses.h"
#include "tensor/grad_check.h"
#include "tensor/tape.h"

namespace kgag {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  uint64_t seed() const { return GetParam(); }
};

// ---- Tape: random DAGs of ops must gradcheck -------------------------------

TEST_P(SeededProperty, RandomTapeGraphGradchecks) {
  Rng rng(seed());
  ParameterStore store;
  const size_t rows = static_cast<size_t>(rng.UniformInt(2, 5));
  const size_t cols = static_cast<size_t>(rng.UniformInt(2, 5));
  Parameter* a = store.Create("a", rows, cols, Init::kXavierUniform, &rng);
  Parameter* b = store.Create("b", cols, rows, Init::kXavierUniform, &rng);

  // A randomized composition: matmul + a random unary chain + reduction.
  // A fixed random weighting before the reduction keeps every composition
  // non-degenerate (Sum∘Softmax alone is constant with zero gradient).
  const int unary = static_cast<int>(rng.UniformInt(0, 3));
  const int reduction = static_cast<int>(rng.UniformInt(0, 2));
  Tensor weight(rows, rows);
  for (size_t i = 0; i < weight.size(); ++i) weight[i] = rng.Normal(0, 1);
  auto build = [&](Tape* tape) {
    Var x = tape->MatMul(tape->Leaf(a), tape->Leaf(b));  // rows x rows
    switch (unary) {
      case 0: x = tape->Sigmoid(x); break;
      case 1: x = tape->Tanh(x); break;
      case 2: x = tape->Softplus(x); break;
      default: x = tape->SoftmaxRows(x); break;
    }
    x = tape->Mul(x, tape->Constant(weight));
    switch (reduction) {
      case 0: return tape->Sum(x);
      case 1: return tape->Mean(x);
      default: return tape->Sum(tape->Mul(x, x));
    }
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
  EXPECT_TRUE(report.ok(1e-4)) << "seed " << seed() << " unary " << unary
                               << " reduction " << reduction << ": "
                               << report.worst_location;
}

// ---- Tape: softmax rows always form distributions --------------------------

TEST_P(SeededProperty, SoftmaxAlwaysDistribution) {
  Rng rng(seed());
  Tape tape;
  const size_t r = static_cast<size_t>(rng.UniformInt(1, 8));
  const size_t c = static_cast<size_t>(rng.UniformInt(1, 8));
  Tensor x(r, c);
  for (size_t i = 0; i < x.size(); ++i) x[i] = rng.Normal(0, 100.0);
  const Tensor y = tape.value(tape.SoftmaxRows(tape.Constant(x)));
  for (size_t i = 0; i < r; ++i) {
    Scalar sum = 0;
    for (size_t j = 0; j < c; ++j) {
      EXPECT_GE(y.at(i, j), 0.0);
      EXPECT_LE(y.at(i, j), 1.0);
      sum += y.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// ---- Losses: margin loss bounds and monotonicity ----------------------------

TEST_P(SeededProperty, MarginLossBounded) {
  Rng rng(seed());
  for (int i = 0; i < 20; ++i) {
    Tape tape;
    const double sp = rng.Normal(0, 3);
    const double sn = rng.Normal(0, 3);
    const double m = rng.Uniform(0.1, 0.9);
    Var loss = MarginPairLoss(&tape, tape.Constant(Tensor::Scalar1(sp)),
                              tape.Constant(Tensor::Scalar1(sn)), m);
    const double v = tape.value(loss).item();
    // 0 <= loss <= 1 + margin (sigmoid difference is in [-1, 1]).
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + m + 1e-12);
  }
}

TEST_P(SeededProperty, BprDecreasesWithSeparation) {
  Rng rng(seed());
  const double base = rng.Normal(0, 1);
  double prev = 1e300;
  for (double gap : {-1.0, 0.0, 0.5, 1.0, 2.0, 4.0}) {
    Tape tape;
    Var loss =
        BprPairLoss(&tape, tape.Constant(Tensor::Scalar1(base + gap)),
                    tape.Constant(Tensor::Scalar1(base)));
    const double v = tape.value(loss).item();
    EXPECT_LT(v, prev);
    prev = v;
  }
}

// ---- Metrics: consistency relations ----------------------------------------

TEST_P(SeededProperty, MetricsConsistency) {
  Rng rng(seed());
  // Random distinct ranking and random positive set.
  std::vector<ItemId> ranked(20);
  std::iota(ranked.begin(), ranked.end(), 0);
  rng.Shuffle(&ranked);
  std::unordered_set<ItemId> pos;
  const int npos = static_cast<int>(rng.UniformInt(1, 6));
  while (static_cast<int>(pos.size()) < npos) {
    pos.insert(static_cast<ItemId>(rng.UniformInt(0, 19)));
  }
  double prev_hit = 0, prev_rec = 0;
  for (size_t k = 1; k <= 20; ++k) {
    const double h = HitAtK(ranked, pos, k);
    const double r = RecallAtK(ranked, pos, k);
    const double n = NdcgAtK(ranked, pos, k);
    // Monotone non-decreasing in k.
    EXPECT_GE(h, prev_hit);
    EXPECT_GE(r, prev_rec);
    // hit@k >= recall@k always (hit is an indicator, recall a fraction).
    EXPECT_GE(h, r - 1e-12);
    EXPECT_GE(n, 0.0);
    EXPECT_LE(n, 1.0);
    prev_hit = h;
    prev_rec = r;
  }
  // At k = universe size, everything is found.
  EXPECT_DOUBLE_EQ(HitAtK(ranked, pos, 20), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, pos, 20), 1.0);
}

// ---- Sampler: trees always well-formed --------------------------------------

TEST_P(SeededProperty, SampledTreesWellFormed) {
  Rng rng(seed());
  // Random small graph.
  const int n = static_cast<int>(rng.UniformInt(4, 20));
  const int r = static_cast<int>(rng.UniformInt(1, 4));
  std::vector<Triple> triples;
  const int m = static_cast<int>(rng.UniformInt(0, 3 * n));
  for (int i = 0; i < m; ++i) {
    triples.push_back(Triple{
        static_cast<EntityId>(rng.UniformInt(0, n - 1)),
        static_cast<RelationId>(rng.UniformInt(0, r - 1)),
        static_cast<EntityId>(rng.UniformInt(0, n - 1))});
  }
  auto g = KnowledgeGraph::Build(n, r, triples);
  ASSERT_TRUE(g.ok());
  const int k = static_cast<int>(rng.UniformInt(1, 5));
  const int depth = static_cast<int>(rng.UniformInt(1, 3));
  NeighborSampler sampler(&*g, k);
  for (int root = 0; root < n; ++root) {
    SampledTree tree = sampler.SampleTree(root, depth, &rng);
    ASSERT_EQ(tree.depth(), depth);
    size_t expected = 1;
    for (int h = 0; h <= depth; ++h) {
      ASSERT_EQ(tree.entities[h].size(), expected);
      if (h < depth) {
        ASSERT_EQ(tree.relations[h].size(), expected * k);
      }
      expected *= static_cast<size_t>(k);
      for (EntityId e : tree.entities[h]) {
        ASSERT_GE(e, 0);
        ASSERT_LT(e, n);
      }
    }
    // Every child is a real neighbor of its parent (or a self-loop pad).
    for (size_t i = 0; i < tree.entities[1].size(); ++i) {
      const RelationId rel = tree.relations[0][i];
      if (rel == sampler.self_loop_relation()) {
        EXPECT_EQ(tree.entities[1][i], root);
      } else {
        EXPECT_TRUE(g->HasEdge(root, rel, tree.entities[1][i]));
      }
    }
  }
}

// ---- Attention: aggregation is always a convex combination -----------------

TEST_P(SeededProperty, AttentionConvexity) {
  Rng rng(seed());
  ParameterStore store;
  const int d = 4;
  const int l = static_cast<int>(rng.UniformInt(2, 6));
  PreferenceAggregator agg(d, l, rng.Bernoulli(0.5), rng.Bernoulli(0.5),
                           &store, &rng);
  Tensor members(l, d);
  for (size_t i = 0; i < members.size(); ++i) members[i] = rng.Normal(0, 2);
  Tensor item(1, d);
  for (size_t i = 0; i < item.size(); ++i) item[i] = rng.Normal(0, 2);

  AttentionBreakdown b = agg.Explain(members, item);
  const double sum =
      std::accumulate(b.alpha.begin(), b.alpha.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Group rep coordinates are bounded by the member extremes (convexity).
  Tape tape;
  Var g =
      agg.AggregateOnTape(&tape, tape.Constant(members), tape.Constant(item));
  const Tensor gv = tape.value(g);
  for (int c = 0; c < d; ++c) {
    double lo = 1e300, hi = -1e300;
    for (int i = 0; i < l; ++i) {
      lo = std::min(lo, members.at(i, c));
      hi = std::max(hi, members.at(i, c));
    }
    EXPECT_GE(gv.at(0, c), lo - 1e-9);
    EXPECT_LE(gv.at(0, c), hi + 1e-9);
  }
}

// ---- Group builder: structural invariants -----------------------------------

TEST_P(SeededProperty, GroupBuilderInvariants) {
  MovieLensConfig cfg;
  cfg.num_users = 50;
  cfg.num_movies = 40;
  cfg.num_directors = 8;
  cfg.num_actors = 20;
  cfg.num_genres = 6;
  cfg.num_years = 8;
  cfg.num_studios = 5;
  cfg.num_countries = 4;
  cfg.num_languages = 3;
  cfg.num_series = 4;
  Rng rng(seed());
  MovieLensWorld w = GenerateMovieLensWorld(cfg, &rng);
  GroupBuilderConfig gcfg;
  gcfg.group_size = static_cast<int>(rng.UniformInt(2, 5));
  gcfg.num_groups = 12;
  GroupBuildResult r = BuildRandomGroups(w.ratings, gcfg, &rng);
  for (GroupId g = 0; g < r.groups.num_groups(); ++g) {
    const auto members = r.groups.MembersOf(g);
    EXPECT_EQ(members.size(), static_cast<size_t>(gcfg.group_size));
    // Members sorted and distinct.
    for (size_t i = 1; i < members.size(); ++i) {
      EXPECT_LT(members[i - 1], members[i]);
    }
    // Every positive satisfies the decision rule.
    for (ItemId v : r.group_item.ItemsOf(g)) {
      for (UserId u : members) {
        const uint8_t rating = w.ratings.Get(u, v);
        EXPECT_NE(rating, 0);
        EXPECT_GE(rating, gcfg.veto_threshold);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                         [](const ::testing::TestParamInfo<uint64_t>& p) {
                           return "seed" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace kgag
