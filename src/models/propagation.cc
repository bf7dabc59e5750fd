#include "models/propagation.h"

#include "obs/obs.h"

namespace kgag {

namespace {

#if KGAG_OBS_ACTIVE
// TraceSpan keeps the name pointer, so per-iteration spans need literals
// with static lifetime; depths beyond the table share a catch-all name.
constexpr const char* kIterationSpanName[] = {
    "propagation.iter0", "propagation.iter1", "propagation.iter2",
    "propagation.iter3"};
const char* IterationSpanName(int iter) {
  return iter < 4 ? kIterationSpanName[iter] : "propagation.iterN";
}
#endif

}  // namespace

PropagationEngine::PropagationEngine(const KnowledgeGraph* graph,
                                     Parameter* entity_table,
                                     ParameterStore* store,
                                     const PropagationConfig& config,
                                     Rng* init_rng)
    : graph_(graph),
      entity_table_(entity_table),
      config_(config),
      sampler_(graph, config.sample_size) {
  KGAG_CHECK(graph != nullptr && entity_table != nullptr && store != nullptr);
  KGAG_CHECK_GE(config.depth, 1);
  KGAG_CHECK_EQ(static_cast<size_t>(graph->num_entities()),
                entity_table->value.rows());
  KGAG_CHECK_EQ(static_cast<size_t>(config.dim), entity_table->value.cols());

  const int d = config_.dim;
  // +1 row for the sampler's self-loop padding relation.
  relation_table_ = store->Create(
      "prop.relations", graph->relation_vocab_size() + 1, d, Init::kNormal01,
      init_rng);
  const int in_dim =
      config_.aggregator == AggregatorKind::kGraphSage ? 2 * d : d;
  for (int h = 0; h < config_.depth; ++h) {
    layer_weights_.push_back(store->Create(
        "prop.W" + std::to_string(h), in_dim, d, Init::kXavierUniform,
        init_rng));
    layer_biases_.push_back(
        store->CreateZeros("prop.b" + std::to_string(h), 1, d));
  }
}

Var PropagationEngine::AggregateOnTape(Tape* tape, Var self, Var neigh,
                                       int iteration) const {
  Var w = tape->Leaf(layer_weights_[iteration]);
  Var b = tape->Leaf(layer_biases_[iteration]);
  Var pre;
  if (config_.aggregator == AggregatorKind::kGcn) {
    pre = tape->MatMul(tape->Add(self, neigh), w);
  } else {
    pre = tape->MatMul(tape->ConcatCols({self, neigh}), w);
  }
  pre = tape->AddRowBroadcast(pre, b);
  const bool last = iteration + 1 == config_.depth;
  if (!last) return tape->Relu(pre);
  return config_.final_tanh ? tape->Tanh(pre) : pre;
}

Var PropagationEngine::PropagateOnTape(Tape* tape, const SampledTree& tree,
                                       Var query) const {
  KGAG_TRACE_SPAN("propagation.forward");
  KGAG_COUNTER_ADD("propagation.forward.calls", 1);
  const int depth = tree.depth();
  KGAG_CHECK_EQ(depth, config_.depth) << "tree depth != engine depth";
  const int k = config_.sample_size;
  const size_t p = tape->value(query).rows();

  // Zero-order representations per tree layer, query-major (P·n_h x d).
  // With one query the int32 span overload widens the tree's ids straight
  // onto the tape's arena — no per-call index vector on the training hot
  // path; P queries gather the layer's ids P times over.
  std::vector<EntityId> tiled;
  std::vector<Var> vec(depth + 1);
  for (int h = 0; h <= depth; ++h) {
    std::span<const EntityId> ids(tree.entities[h]);
    if (p != 1) {
      tiled.clear();
      for (size_t q = 0; q < p; ++q) {
        tiled.insert(tiled.end(), ids.begin(), ids.end());
      }
      ids = tiled;
    }
    vec[h] = tape->Gather(entity_table_, ids);
  }

  // Query-conditioned, softmax-normalized neighbor weights per layer
  // (Eq. 2–3). They depend only on (query, relation), so one GEMM per
  // layer scores every query against every sampled relation:
  // Q (P x d) · Relᵀ (d x n·K), read as (P·n x K).
  std::vector<Var> pi(depth);
  for (int h = 0; h < depth; ++h) {
    const size_t n = tree.entities[h].size();
    Var rel = tape->Gather(relation_table_,
                           std::span<const RelationId>(tree.relations[h]));
    Var scores = tape->MatMul(query, tape->Transpose(rel));     // (P x nK)
    pi[h] = tape->SoftmaxRows(tape->Reshape(scores, p * n, k)); // (Pn x K)
  }

  // H refinement iterations (Eq. 7–8), shrinking the active prefix.
  for (int iter = 0; iter < depth; ++iter) {
    KGAG_OBS_ONLY(obs::TraceSpan iter_span(IterationSpanName(iter));)
    std::vector<Var> next(depth - iter);
    for (int h = 0; h < depth - iter; ++h) {
      Var neigh = tape->SegmentWeightedSumRows(pi[h], vec[h + 1]);
      next[h] = AggregateOnTape(tape, vec[h], neigh, iter);
    }
    for (int h = 0; h < depth - iter; ++h) vec[h] = next[h];
  }
  return vec[0];  // (P x d)
}

Tensor PropagationEngine::PropagateMean(Tape* tape,
                                        std::span<const SampledTree> trees,
                                        const Tensor& queries) const {
  KGAG_CHECK(!trees.empty());
  Tensor acc(queries.rows(), queries.cols());
  for (const SampledTree& tree : trees) {
    acc.Add(tape->value(PropagateOnTape(tape, tree, tape->Constant(queries))));
    tape->Clear();
  }
  acc.Scale(1.0 / static_cast<double>(trees.size()));
  return acc;
}

}  // namespace kgag
