// KGAG: knowledge graph-based attentive group recommendation — the paper's
// primary contribution, wiring together the collaborative KG, the
// information propagation block, the SP/PI preference aggregation block
// and the margin-loss optimization block into one end-to-end trainable
// model.
#ifndef KGAG_MODELS_KGAG_MODEL_H_
#define KGAG_MODELS_KGAG_MODEL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/result.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "kg/collaborative_kg.h"
#include "models/attention.h"
#include "models/config.h"
#include "common/thread_pool.h"
#include "models/propagation.h"
#include "models/recommender.h"
#include "tensor/grad_buffer.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"

namespace kgag {

class ValidationSelector;

/// \brief Interpretability output for one (group, item) pair (RQ4).
struct GroupExplanation {
  std::vector<UserId> members;
  AttentionBreakdown attention;
  double prediction = 0.0;  ///< σ(⟨g, v⟩)
};

/// \brief The KGAG model. Construct via Create(), then Fit(), then score.
class KgagModel : public TrainableGroupRecommender {
 public:
  /// Builds the collaborative KG and initializes all parameters.
  static Result<std::unique_ptr<KgagModel>> Create(
      const GroupRecDataset* dataset, const KgagConfig& config);

  // TrainableGroupRecommender:
  void Fit() override;
  /// The one-group case of ScoreGroups.
  std::vector<double> ScoreGroup(GroupId g,
                                 std::span<const ItemId> items) override;
  /// Exact scores for many groups at once (DESIGN.md §3): per candidate
  /// block each distinct member is propagated once and each item tree
  /// once per chunk of groups, so the work is shared across groups while
  /// every score stays bit-identical to a one-group pass.
  std::vector<double> ScoreGroups(std::span<const GroupId> groups,
                                  std::span<const ItemId> items,
                                  ThreadPool* pool) override;
  std::string name() const override;

  /// Runs one epoch over the training split; returns the mean batch loss.
  double TrainEpoch(Rng* rng);

  /// One online fine-tuning micro-epoch (DESIGN.md §15): TrainEpoch
  /// driven by the model's own training RNG — the stream Fit advances
  /// and checkpoints restore — so a warm-started run continues the
  /// checkpointed randomness instead of forking a new one.
  double FineTuneEpoch() { return TrainEpoch(&train_rng_); }

  /// Rebuilds the collaborative KG from `interactions` (the updated
  /// (user, item) pair list) and re-derives the batcher orders — the
  /// online-world refresh hook. The node universe must stay fixed: the
  /// dataset's entity/user/relation counts are reused, so the rebuilt
  /// graph has the same node ids and relation vocabulary and the entity
  /// embedding table stays valid row-for-row. New interactions only add
  /// `Interact` edges. Clears the eval-tree cache (receptive fields
  /// sampled on the old graph are stale). The caller must have already
  /// updated the dataset's user_item matrix to match `interactions`.
  Status RefreshInteractions(
      const std::vector<std::pair<int32_t, int32_t>>& interactions);

  /// Captures the full training state — parameters, optimizer moments,
  /// RNG streams, batcher orders/cursors, validation selection and epoch
  /// bookkeeping — for a checkpoint. `selector` may be null (state saved
  /// without the selection snapshot).
  ckpt::TrainingState CaptureTrainingState(
      uint64_t epoch, bool mid_epoch, uint64_t batches_done,
      double partial_loss, const ValidationSelector* selector) const;

  /// Restores a CaptureTrainingState snapshot into this model (and the
  /// selector, when given). The model must have been constructed with the
  /// same dataset and architecture config.
  Status RestoreTrainingState(const ckpt::TrainingState& state,
                              ValidationSelector* selector);

  /// Attention-based explanation for a (group, candidate item) pair.
  GroupExplanation ExplainGroup(GroupId g, ItemId v);

  /// σ(⟨g, v⟩) for a single pair.
  double PredictGroupItem(GroupId g, ItemId v);

  /// Query-independent user representations for serving, one row per
  /// user id: the user's entity propagated with its own zero-order
  /// embedding as the query (KGCN-style offline precomputation; the
  /// online path cannot know the candidate item ahead of the request, so
  /// the query-conditioned eval propagation is approximated by the
  /// self-query — see DESIGN.md §10). Deterministic for a given model
  /// state: eval trees are seeded per node.
  Tensor ServingUserReps();

  /// Same, one row per item id, propagated from the item's entity.
  Tensor ServingItemReps();

  const std::vector<double>& epoch_losses() const { return epoch_losses_; }
  ParameterStore* params() { return &store_; }
  const KgagConfig& config() const { return config_; }
  const CollaborativeKg& ckg() const { return ckg_; }
  const GroupRecDataset* dataset() const { return dataset_; }

 private:
  KgagModel(const GroupRecDataset* dataset, const KgagConfig& config);

  /// TrainEpoch body with checkpoint plumbing: `mgr` (nullable) receives a
  /// mid-epoch snapshot every config_.checkpoint_every_batches batches;
  /// `resume_batches`/`resume_loss` seed the counters when re-entering an
  /// epoch restored mid-flight (the batcher skips its reshuffle then).
  double TrainEpochCheckpointed(Rng* rng, int epoch,
                                ckpt::CheckpointManager* mgr,
                                const ValidationSelector* selector,
                                uint64_t resume_batches, double resume_loss);

  /// Per-shard training context: a reusable tape plus a gradient
  /// accumulation buffer the tape's backward pass writes into. One per
  /// concurrent shard; reused across batches/epochs so tape node storage
  /// and arena capacity stay warm.
  struct ShardContext {
    std::unique_ptr<Tape> tape;
    std::unique_ptr<GradBuffer> grads;
    double loss = 0.0;
  };

  /// The training worker pool, created on first use; null when
  /// config_.train_threads <= 1. Fit's validation borrows it too.
  ThreadPool* TrainPool();

  /// Grows shard_contexts_ to n entries (tapes wired to their buffers).
  void EnsureShardContexts(size_t n);

  /// Member reps (L x d) and item rep (1 x d) for one candidate on tape;
  /// returns the 1x1 score node.
  Var ScoreGroupItemOnTape(Tape* tape, GroupId g, ItemId v, Rng* rng);

  /// User-item logit on tape (KGCN-style: item propagated with the user
  /// embedding as query).
  Var ScoreUserItemOnTape(Tape* tape, UserId u, ItemId v, Rng* rng);

  /// Fixed eval-time receptive fields for a node (sampled once, cached).
  /// Several trees are kept and their propagated representations averaged:
  /// training optimizes an expectation over resampled neighborhoods, so a
  /// Monte-Carlo average is the right eval-time estimator. Safe to call
  /// from concurrent evaluator workers.
  const std::vector<SampledTree>& EvalTrees(EntityId node);

  /// Runs fn(Tape*) on a forward-only tape leased from eval_tapes_ and
  /// returns its result; the tape is cleared and handed back after.
  template <typename Fn>
  auto WithEvalTape(Fn&& fn);

  /// PropagateMean over the node's eval trees for P queries (P x d), on
  /// a leased eval tape.
  Tensor PropagateEval(EntityId node, const Tensor& queries);

  /// Zero-order embedding rows of `nodes`, in order (ids may repeat).
  Tensor EntityRows(std::span<const EntityId> nodes) const;

  /// Member rows (P·L x d, query-major: row p·L + i is member i under
  /// candidate p) and item rows (P x d) of every group in `groups` for
  /// one candidate block of P items, handed to emit(i, members, items)
  /// for groups[i]. Propagation is shared: one PropagateEval per distinct
  /// member (all P candidates as queries), and one per (item, chunk of up
  /// to 64 groups) with the chunk's GroupQuery rows as queries; chunks
  /// go one at a time, so only one chunk's item rows are alive. Work fans
  /// out over `pool` when given; emit then runs on pool threads.
  void BlockReps(std::span<const GroupId> groups,
                 std::span<const ItemId> block, ThreadPool* pool,
                 const std::function<void(size_t, Tensor, Tensor)>& emit);

  /// Group-item logits (P x 1, Eq. 14) from P candidates' member rows
  /// (P·L x d, query-major) and item rows (P x d), on a leased eval tape.
  Tensor GroupLogits(Tensor member_reps, Tensor item_reps);

  /// Mean zero-order member embedding of group g (the item-side query).
  Tensor GroupQuery(GroupId g) const;

  const GroupRecDataset* dataset_;
  KgagConfig config_;
  CollaborativeKg ckg_;
  Rng init_rng_;
  ParameterStore store_;
  Parameter* entity_table_ = nullptr;
  std::optional<PropagationEngine> propagation_;
  std::optional<PreferenceAggregator> aggregator_;
  std::unique_ptr<Optimizer> optimizer_;
  Batcher batcher_;
  Rng train_rng_;
  /// Shard contexts indexed by the slot a shard runs in; sized to the
  /// concurrency level (1 when serial). Gradients always flow through
  /// these buffers — also at 1 thread — so the reduction tree is
  /// identical for every train_threads value.
  std::vector<ShardContext> shard_contexts_;
  /// Worker pool for sharded training and Fit's validation; see
  /// TrainPool().
  std::unique_ptr<ThreadPool> train_pool_;
  /// Guards eval_trees_, which parallel evaluators fill lazily. Callers
  /// keep references to the mapped vectors: they survive rehashing.
  std::mutex eval_trees_mu_;
  std::unordered_map<EntityId, std::vector<SampledTree>> eval_trees_;
  /// Forward-only tapes for evaluation and freezing, leased per pass, so
  /// the model keeps as many warm arenas as passes ever ran at once, not
  /// one per thread that ever scored (Fit validates on the training pool;
  /// test evaluation runs on the caller's pool).
  std::mutex eval_tapes_mu_;
  std::vector<std::unique_ptr<Tape>> eval_tapes_;
  /// Trees averaged per PropagateEval call; lowered during per-epoch
  /// validation scoring, restored for final evaluation.
  int eval_samples_in_use_ = 0;
  std::vector<double> epoch_losses_;
};

}  // namespace kgag

#endif  // KGAG_MODELS_KGAG_MODEL_H_
