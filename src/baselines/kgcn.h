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

  /// All-user scores for one item (lazy cache; queries = user table).
  /// Safe to call from concurrent evaluator workers.
  const std::vector<double>& AllUserScores(ItemId v);

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
  /// Guards the two lazily filled eval caches below. Callers keep
  /// references to mapped values: they survive rehashing.
  std::mutex cache_mu_;
  std::unordered_map<EntityId, std::vector<SampledTree>> eval_trees_;
  std::unordered_map<ItemId, std::vector<double>> score_cache_;
  bool cache_valid_ = false;
  std::vector<double> epoch_losses_;
};

}  // namespace kgag

#endif  // KGAG_BASELINES_KGCN_H_
