#include "models/propagation.h"

#include <gtest/gtest.h>

#include "tensor/grad_check.h"

namespace kgag {
namespace {

// Small graph: 6 entities, 2 relations, a few edges.
KnowledgeGraph TestGraph() {
  std::vector<Triple> triples = {
      {0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {2, 1, 4}, {3, 0, 4}, {4, 1, 5}};
  auto g = KnowledgeGraph::Build(6, 2, triples);
  KGAG_CHECK(g.ok());
  return std::move(*g);
}

struct PropCase {
  const char* name;
  int depth;
  int sample_size;
  AggregatorKind aggregator;
  int dim = 4;
};

class PropagationTest : public ::testing::TestWithParam<PropCase> {
 protected:
  PropagationTest()
      : graph_(TestGraph()),
        rng_(11),
        dim_(GetParam().dim),
        entity_table_(store_.Create("entities", 6, dim_, Init::kNormal01,
                                    &rng_)) {}

  PropagationConfig MakeConfig() const {
    PropagationConfig cfg;
    cfg.depth = GetParam().depth;
    cfg.sample_size = GetParam().sample_size;
    cfg.dim = dim_;
    cfg.aggregator = GetParam().aggregator;
    return cfg;
  }

  /// (rows x dim) query-like values, uniform in [-1.25, 1.25).
  Tensor Rows(size_t rows, uint64_t seed) const {
    Rng rng(seed);
    Tensor t(rows, static_cast<size_t>(dim_));
    for (size_t i = 0; i < t.size(); ++i) t[i] = rng.Uniform(-1.25, 1.25);
    return t;
  }

  KnowledgeGraph graph_;
  ParameterStore store_;
  Rng rng_;
  int dim_;
  Parameter* entity_table_;
};

TEST_P(PropagationTest, TapeOutputShape) {
  PropagationEngine engine(&graph_, entity_table_, &store_, MakeConfig(),
                           &rng_);
  Rng tree_rng(3);
  SampledTree tree = engine.SampleTree(0, &tree_rng);
  Tape tape;
  Var query = tape.Constant(Rows(1, 1));
  Var rep = engine.PropagateOnTape(&tape, tree, query);
  EXPECT_EQ(tape.value(rep).rows(), 1u);
  EXPECT_EQ(tape.value(rep).cols(), static_cast<size_t>(dim_));
  // tanh final layer bounds outputs.
  EXPECT_LE(tape.value(rep).AbsMax(), 1.0);
}

TEST_P(PropagationTest, MultiQueryMatchesSingleQueryBitExactly) {
  // Evaluation propagates P queries through one tape pass; training
  // propagates one. Both must be the same computation, bit for bit. The
  // query counts cross the GEMM's register tile (MR = 4) and its 128-row
  // panel, and include the batch scorer's block (64) and its neighbours.
  PropagationEngine engine(&graph_, entity_table_, &store_, MakeConfig(),
                           &rng_);
  Rng tree_rng(5);
  SampledTree tree = engine.SampleTree(1, &tree_rng);

  for (size_t p : {1, 5, 63, 64, 65, 130}) {
    SCOPED_TRACE(::testing::Message() << "P = " << p);
    const Tensor queries = Rows(p, 100 + p);
    Tape batch_tape;
    const Tensor batch = batch_tape.value(engine.PropagateOnTape(
        &batch_tape, tree, batch_tape.Constant(queries)));
    ASSERT_EQ(batch.rows(), p);
    ASSERT_EQ(batch.cols(), static_cast<size_t>(dim_));

    for (size_t q = 0; q < p; ++q) {
      Tape tape;
      Var rep = engine.PropagateOnTape(&tape, tree,
                                       tape.Constant(queries.RowAt(q)));
      const Tensor& single = tape.value(rep);
      ASSERT_EQ(single.rows(), 1u);
      for (size_t c = 0; c < static_cast<size_t>(dim_); ++c) {
        ASSERT_EQ(batch.at(q, c), single.at(0, c))
            << "query " << q << " dim " << c;
      }
    }
  }
}

TEST_P(PropagationTest, GradientsMatchNumeric) {
  PropagationEngine engine(&graph_, entity_table_, &store_, MakeConfig(),
                           &rng_);
  Rng tree_rng(7);
  SampledTree tree = engine.SampleTree(0, &tree_rng);
  const Tensor query_value = Rows(1, 2);
  const Tensor target_value = Rows(1, 3);

  auto build = [&](Tape* tape) {
    Var query = tape->Constant(query_value);
    Var rep = engine.PropagateOnTape(tape, tree, query);
    // Arbitrary scalar head over the representation.
    Var target = tape->Constant(target_value);
    return tape->Sum(tape->Mul(rep, target));
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

TEST_P(PropagationTest, QueryGradientFlows) {
  // The query is itself an embedding; its gradient must flow (it trains
  // the candidate item / user embeddings through π).
  PropagationEngine engine(&graph_, entity_table_, &store_, MakeConfig(),
                           &rng_);
  Rng tree_rng(9);
  SampledTree tree = engine.SampleTree(2, &tree_rng);
  Tape tape;
  Var query = tape.Gather(entity_table_, {5});
  Var rep = engine.PropagateOnTape(&tape, tree, query);
  tape.Backward(tape.Sum(rep));
  EXPECT_TRUE(entity_table_->touched_rows.count(5) ||
              entity_table_->dense_touched);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PropagationTest,
    ::testing::Values(PropCase{"h1k2_gcn", 1, 2, AggregatorKind::kGcn},
                      PropCase{"h2k2_gcn", 2, 2, AggregatorKind::kGcn},
                      PropCase{"h2k3_gcn", 2, 3, AggregatorKind::kGcn},
                      PropCase{"h3k2_gcn", 3, 2, AggregatorKind::kGcn},
                      PropCase{"h2k2_sage", 2, 2,
                               AggregatorKind::kGraphSage},
                      PropCase{"h1k4_sage", 1, 4,
                               AggregatorKind::kGraphSage},
                      // The benchmark's evaluation shape (dim 16, K = 6).
                      PropCase{"h2k6_gcn_d16", 2, 6, AggregatorKind::kGcn,
                               16}),
    [](const ::testing::TestParamInfo<PropCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(PropagationEngineTest, DifferentQueriesGiveDifferentReps) {
  // π is query-conditioned: two very different queries must weight
  // neighbors differently (this is what distinguishes the architecture
  // from a plain GCN).
  KnowledgeGraph graph = TestGraph();
  ParameterStore store;
  Rng rng(21);
  Parameter* table = store.Create("entities", 6, 4, Init::kNormal01, &rng);
  PropagationConfig cfg;
  cfg.depth = 2;
  cfg.sample_size = 2;
  cfg.dim = 4;
  PropagationEngine engine(&graph, table, &store, cfg, &rng);
  Rng tree_rng(23);
  SampledTree tree = engine.SampleTree(0, &tree_rng);
  Tensor queries{{2.0, -1.0, 0.5, 1.0}, {-2.0, 1.0, -0.5, -1.0}};
  Tape tape;
  const Tensor& reps =
      tape.value(engine.PropagateOnTape(&tape, tree, tape.Constant(queries)));
  double diff = 0;
  for (size_t c = 0; c < 4; ++c) {
    diff += std::abs(reps.at(0, c) - reps.at(1, c));
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(PropagationEngineTest, RelationTableIncludesSelfLoopRow) {
  KnowledgeGraph graph = TestGraph();
  ParameterStore store;
  Rng rng(25);
  Parameter* table = store.Create("entities", 6, 4, Init::kNormal01, &rng);
  PropagationConfig cfg;
  cfg.depth = 1;
  cfg.sample_size = 2;
  cfg.dim = 4;
  PropagationEngine engine(&graph, table, &store, cfg, &rng);
  EXPECT_EQ(engine.relation_table()->value.rows(),
            static_cast<size_t>(graph.relation_vocab_size()) + 1);
}

}  // namespace
}  // namespace kgag
