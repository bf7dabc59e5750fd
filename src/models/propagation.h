// Information propagation block (§III-C): query-conditioned graph
// convolution over a (collaborative) knowledge graph.
//
// For one training instance a depth-H receptive-field tree is sampled per
// needed node (NeighborSampler) and representations are refined bottom-up
// H times. Neighbor weights π(e, r, e_t) = ⟨i_e, r⟩ are conditioned on the
// instance's "interaction object" embedding i_e (the query), softmax-
// normalized per node (Eq. 2–3). Two update functions are supported:
// GCN σ(W(e + e_N) + b) and GraphSage σ(W·concat(e, e_N) + b) (Eq. 5–6),
// with ReLU on inner iterations and tanh on the last (the KGCN
// convention).
//
// PropagateOnTape is the one forward definition. Training calls it with
// one query; evaluation, freezing and the KGCN baseline call it with P
// queries at once (every candidate item induces its own query) on a tape
// they never run backward on. Tree layer h is laid out query-major: row
// p·n_h + i holds node i of layer h under query p.
#ifndef KGAG_MODELS_PROPAGATION_H_
#define KGAG_MODELS_PROPAGATION_H_

#include <span>
#include <vector>

#include "kg/neighbor_sampler.h"
#include "models/config.h"
#include "tensor/parameter.h"
#include "tensor/tape.h"

namespace kgag {

/// \brief Owns the propagation parameters (relation embeddings and
/// per-iteration aggregator weights) and runs the convolution.
class PropagationEngine {
 public:
  /// \param graph collaborative KG; must outlive the engine
  /// \param entity_table (num_nodes x d) zero-order embeddings, owned by
  ///        the caller and shared with other model components
  /// \param store parameter store the engine adds its weights to
  /// \param init_rng initializer randomness
  PropagationEngine(const KnowledgeGraph* graph, Parameter* entity_table,
                    ParameterStore* store, const PropagationConfig& config,
                    Rng* init_rng);

  const PropagationConfig& config() const { return config_; }
  const NeighborSampler& sampler() const { return sampler_; }

  /// Samples the receptive field of `root` for this instance.
  SampledTree SampleTree(EntityId root, Rng* rng) const {
    return sampler_.SampleTree(root, config_.depth, rng);
  }

  /// Differentiable root representations (P x d), one per query row of
  /// `query` (P x d); P = 1 is the training case.
  Var PropagateOnTape(Tape* tape, const SampledTree& tree, Var query) const;

  /// Forward-only root representations for P queries (P x d), averaged
  /// over `trees`: PropagateOnTape on `tape`, which is cleared after
  /// every pass and never runs Backward.
  Tensor PropagateMean(Tape* tape, std::span<const SampledTree> trees,
                       const Tensor& queries) const;

  Parameter* relation_table() { return relation_table_; }

 private:
  Var AggregateOnTape(Tape* tape, Var self, Var neigh, int iteration) const;

  const KnowledgeGraph* graph_;
  Parameter* entity_table_;
  PropagationConfig config_;
  NeighborSampler sampler_;
  Parameter* relation_table_;               // (vocab + 1 self-loop) x d
  std::vector<Parameter*> layer_weights_;   // H matrices
  std::vector<Parameter*> layer_biases_;    // H biases
};

}  // namespace kgag

#endif  // KGAG_MODELS_PROPAGATION_H_
