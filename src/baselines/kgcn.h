// KGCN baseline [25]: knowledge graph convolutional network for
// *individual* recommendation, extended to groups with a static score
// aggregation (KGCN+AVG / +LM / +MP of Table II). The item representation
// is propagated over the item knowledge graph (not the collaborative KG)
// with the user embedding as the query, and the prediction is
// ⟨u, item_rep⟩. Training uses the same combined loss as the other
// methods (Eq. 20), with the group term applied to the aggregated member
// score.
#ifndef KGAG_BASELINES_KGCN_H_
#define KGAG_BASELINES_KGCN_H_

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "baselines/aggregation.h"
#include "baselines/mf.h"
#include "common/result.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "kg/neighbor_sampler.h"
#include "models/propagation.h"
#include "models/recommender.h"
#include "tensor/optimizer.h"

namespace kgag {

/// \brief KGCN configuration: MF knobs plus the propagation block.
struct KgcnConfig {
  MfConfig base;
  PropagationConfig propagation;
  /// Eval-time Monte-Carlo receptive-field samples (averaged), matching
  /// the KGAG evaluator for a fair comparison.
  int eval_tree_samples = 3;
};

/// \brief KGCN + static score aggregation for group recommendation.
class KgcnGroupRecommender : public TrainableGroupRecommender,
                             public IndividualScorer {
 public:
  static Result<std::unique_ptr<KgcnGroupRecommender>> Create(
      const GroupRecDataset* dataset, KgcnConfig config,
      ScoreAggregation aggregation);

  void Fit() override;
  std::vector<double> ScoreGroup(GroupId g,
                                 std::span<const ItemId> items) override;
  /// Propagates each item once with every user as a query (in parallel
  /// over items when `pool` is given), then aggregates per group.
  std::vector<double> ScoreGroups(std::span<const GroupId> groups,
                                  std::span<const ItemId> items,
                                  ThreadPool* pool) override;
  std::vector<double> ScoreUser(UserId u,
                                std::span<const ItemId> items) override;
  std::string name() const override;

  double TrainEpoch(Rng* rng);
  const std::vector<double>& epoch_losses() const { return epoch_losses_; }

 private:
  KgcnGroupRecommender(const GroupRecDataset* dataset, KgcnConfig config,
                       ScoreAggregation aggregation);

  /// Differentiable ⟨u, item_rep(query = u)⟩ for one pair.
  Var ScorePairOnTape(Tape* tape, UserId u, ItemId v, Rng* rng);

  const std::vector<SampledTree>& EvalTrees(EntityId item_entity);

  /// ⟨u, item_rep(query = u)⟩ of item v for each of `users`, averaged
  /// over v's eval trees. A user's score does not depend on the others
  /// in the call. Safe to call from concurrent evaluator workers.
  std::vector<double> UserScores(ItemId v, std::span<const UserId> users);

  const GroupRecDataset* dataset_;
  KgcnConfig config_;
  ScoreAggregation aggregation_;
  Rng init_rng_;
  ParameterStore store_;
  Parameter* user_table_;
  Parameter* entity_table_;
  KnowledgeGraph item_kg_;
  std::optional<PropagationEngine> propagation_;
  std::unique_ptr<Optimizer> optimizer_;
  Batcher batcher_;
  Rng train_rng_;
  /// Guards eval_trees_, which parallel evaluators fill lazily. Callers
  /// keep references to the mapped vectors: they survive rehashing.
  std::mutex eval_trees_mu_;
  std::unordered_map<EntityId, std::vector<SampledTree>> eval_trees_;
  std::vector<double> epoch_losses_;
};

}  // namespace kgag

#endif  // KGAG_BASELINES_KGCN_H_
