#include "models/kgag_model.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "models/losses.h"
#include "models/validation.h"
#include "obs/obs.h"
#include "tensor/serialization.h"

namespace kgag {

namespace {
Scalar SigmoidScalar(Scalar x) {
  if (x >= 0) return 1.0 / (1.0 + std::exp(-x));
  const Scalar z = std::exp(x);
  return z / (1.0 + z);
}

// Counter-based RNG stream ids for receptive-field sampling during
// training (negative sampling owns kGroupNegativeStream /
// kUserNegativeStream in data/batcher.h).
constexpr uint64_t kGroupTreeStream = 0xA1;
constexpr uint64_t kUserTreeStream = 0xA2;

// Tag marking the stream-seed record appended to the checkpoint rng blob
// (after the two engine states); ASCII "STREAM01". Its absence marks a
// pre-stream checkpoint, which still restores fine: the seed lives in the
// config, the tag only guards against resuming with a different one.
constexpr uint64_t kRngStreamTag = 0x53545245414d3031ULL;
}  // namespace

std::string KgagConfig::Describe() const {
  std::string s = "KGAG";
  if (!use_kg) s += "-KG";
  if (!use_sp) s += "-SP";
  if (!use_pi) s += "-PI";
  if (group_loss == GroupLossKind::kBpr) s += " (BPR)";
  if (propagation.aggregator == AggregatorKind::kGraphSage) {
    s += " [GraphSage]";
  }
  return s;
}

KgagModel::KgagModel(const GroupRecDataset* dataset, const KgagConfig& config)
    : dataset_(dataset),
      config_(config),
      init_rng_(config.seed),
      batcher_(dataset,
               Batcher::Options{config.batch_size, config.user_ratio,
                                config.pairs_per_epoch}),
      train_rng_(config.seed + 1),
      eval_samples_in_use_(config.eval_tree_samples) {}

Result<std::unique_ptr<KgagModel>> KgagModel::Create(
    const GroupRecDataset* dataset, const KgagConfig& config) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("null dataset");
  }
  auto model =
      std::unique_ptr<KgagModel>(new KgagModel(dataset, config));

  std::vector<std::pair<int32_t, int32_t>> interactions;
  for (const Interaction& it : dataset->user_item.ToPairs()) {
    interactions.emplace_back(it.row, it.item);
  }
  KGAG_ASSIGN_OR_RETURN(
      model->ckg_,
      BuildCollaborativeKg(dataset->kg_triples, dataset->num_entities,
                           dataset->num_relations, dataset->num_users,
                           dataset->item_to_entity, interactions));

  const int d = config.propagation.dim;
  model->entity_table_ = model->store_.Create(
      "entity_emb", model->ckg_.graph.num_entities(), d, Init::kNormal01,
      &model->init_rng_);
  if (config.use_kg) {
    model->propagation_.emplace(&model->ckg_.graph, model->entity_table_,
                                &model->store_, config.propagation,
                                &model->init_rng_);
  }
  model->aggregator_.emplace(d, dataset->group_size, config.use_sp,
                             config.use_pi, &model->store_,
                             &model->init_rng_);
  model->optimizer_ = std::make_unique<Adam>(config.learning_rate);
  return model;
}

std::string KgagModel::name() const { return config_.Describe(); }

Var KgagModel::ScoreGroupItemOnTape(Tape* tape, GroupId g, ItemId v,
                                    Rng* rng) {
  const auto members = dataset_->groups.MembersOf(g);
  const EntityId item_entity = ckg_.ItemEntity(v);

  // Query for member propagation: the candidate item's zero-order
  // embedding (§III-C1: i_e for a group member is the item the group
  // interacts with).
  Var member_query = tape->Gather(
      entity_table_, {static_cast<size_t>(item_entity)});

  std::vector<Var> member_rows;
  member_rows.reserve(members.size());
  std::vector<size_t> member_nodes;
  member_nodes.reserve(members.size());
  for (UserId u : members) {
    member_nodes.push_back(static_cast<size_t>(ckg_.UserNode(u)));
  }
  if (config_.use_kg) {
    for (size_t i = 0; i < members.size(); ++i) {
      SampledTree tree = propagation_->SampleTree(
          static_cast<EntityId>(member_nodes[i]), rng);
      member_rows.push_back(
          propagation_->PropagateOnTape(tape, tree, member_query));
    }
  }
  Var member_reps = config_.use_kg
                        ? tape->ConcatRows(member_rows)
                        : tape->Gather(entity_table_, member_nodes);

  // Query for item propagation: mean zero-order member embedding.
  Var item_query =
      tape->MeanRows(tape->Gather(entity_table_, member_nodes));
  Var item_rep;
  if (config_.use_kg) {
    SampledTree tree = propagation_->SampleTree(item_entity, rng);
    item_rep = propagation_->PropagateOnTape(tape, tree, item_query);
  } else {
    item_rep = tape->Gather(entity_table_,
                            {static_cast<size_t>(item_entity)});
  }

  Var group_rep = aggregator_->AggregateOnTape(tape, member_reps, item_rep);
  return tape->DotAll(group_rep, item_rep);  // Eq. (14)/(15)
}

Var KgagModel::ScoreUserItemOnTape(Tape* tape, UserId u, ItemId v, Rng* rng) {
  // Eq. (19) with knowledge-aware representations on both sides, so the
  // user-item loss trains the same propagated path the group scorer uses:
  // the user is propagated with the item embedding as its interaction
  // object and vice versa.
  const size_t user_node = static_cast<size_t>(ckg_.UserNode(u));
  const size_t item_node = static_cast<size_t>(ckg_.ItemEntity(v));
  Var user_emb = tape->Gather(entity_table_, {user_node});
  Var item_emb = tape->Gather(entity_table_, {item_node});
  if (!config_.use_kg) {
    return tape->DotAll(user_emb, item_emb);
  }
  SampledTree user_tree =
      propagation_->SampleTree(static_cast<EntityId>(user_node), rng);
  Var user_rep = propagation_->PropagateOnTape(tape, user_tree, item_emb);
  SampledTree item_tree = propagation_->SampleTree(ckg_.ItemEntity(v), rng);
  Var item_rep = propagation_->PropagateOnTape(tape, item_tree, user_emb);
  return tape->DotAll(user_rep, item_rep);
}

Status KgagModel::RefreshInteractions(
    const std::vector<std::pair<int32_t, int32_t>>& interactions) {
  KGAG_ASSIGN_OR_RETURN(
      CollaborativeKg next,
      BuildCollaborativeKg(dataset_->kg_triples, dataset_->num_entities,
                           dataset_->num_relations, dataset_->num_users,
                           dataset_->item_to_entity, interactions));
  if (next.graph.num_entities() != ckg_.graph.num_entities()) {
    return Status::InvalidArgument(
        "online refresh must keep the node universe fixed: " +
        std::to_string(ckg_.graph.num_entities()) + " entities before, " +
        std::to_string(next.graph.num_entities()) + " after");
  }
  if (next.graph.relation_vocab_size() != ckg_.graph.relation_vocab_size()) {
    return Status::InvalidArgument(
        "online refresh changed the relation vocabulary");
  }
  // ckg_ is a member object: move-assignment replaces its contents in
  // place, so the &ckg_.graph pointer held by the propagation engine and
  // its sampler stays valid and now sees the refreshed adjacency.
  ckg_ = std::move(next);
  // Receptive fields cached for eval/freeze were sampled on the old
  // adjacency; drop them so the next freeze sees the new edges.
  {
    std::lock_guard<std::mutex> lock(eval_trees_mu_);
    eval_trees_.clear();
  }
  batcher_.RefreshFromDataset();
  return Status::OK();
}

double KgagModel::TrainEpoch(Rng* rng) {
  return TrainEpochCheckpointed(rng,
                                static_cast<int>(epoch_losses_.size()),
                                /*mgr=*/nullptr, /*selector=*/nullptr,
                                /*resume_batches=*/0, /*resume_loss=*/0.0);
}

void KgagModel::EnsureShardContexts(size_t n) {
  while (shard_contexts_.size() < n) {
    ShardContext ctx;
    ctx.tape = std::make_unique<Tape>(config_.tape_arena);
    ctx.tape->ReserveNodes(512);
    ctx.grads = std::make_unique<GradBuffer>(&store_);
    ctx.tape->set_grad_sink(ctx.grads.get());
    shard_contexts_.push_back(std::move(ctx));
  }
}

ThreadPool* KgagModel::TrainPool() {
  if (config_.train_threads > 1 && train_pool_ == nullptr) {
    train_pool_ =
        std::make_unique<ThreadPool>(static_cast<size_t>(config_.train_threads));
  }
  return train_pool_.get();
}

double KgagModel::TrainEpochCheckpointed(Rng* rng, int epoch,
                                         ckpt::CheckpointManager* mgr,
                                         const ValidationSelector* selector,
                                         uint64_t resume_batches,
                                         double resume_loss) {
  KGAG_TRACE_SPAN("train.epoch");
  KGAG_OBS_ONLY(Stopwatch epoch_watch; size_t epoch_examples = 0;
                double grad_sq_sum = 0.0;)
  batcher_.BeginEpoch(rng);  // no-op when resuming an epoch mid-flight
  ThreadPool* const pool = TrainPool();
  // All per-example randomness (negatives, receptive-field trees) is
  // addressed by (seed, epoch, stream, example index): any shard can draw
  // example i's stream without touching shared engine state, so batch
  // content and sampled trees are identical for every train_threads value.
  const EpochStreams streams{config_.seed, static_cast<uint64_t>(epoch)};
  const size_t shard_size = std::max<size_t>(1, config_.train_shard_size);
  MiniBatch batch;
  double total_loss = resume_loss;
  size_t num_batches = static_cast<size_t>(resume_batches);
  while (batcher_.NextBatch(streams, &batch)) {
    KGAG_TRACE_SPAN("train.batch");
    double batch_loss = 0.0;
    const size_t n_group = batch.group_triplets.size();
    const size_t n_user = batch.user_instances.size();
    const size_t n_total = n_group + n_user;
    const double group_scale =
        n_group == 0 ? 0.0
                     : config_.beta / static_cast<double>(n_group);
    const double user_scale =
        n_user == 0 ? 0.0
                    : (1.0 - config_.beta) / static_cast<double>(n_user);

    // Fixed shard structure: examples [s*shard_size, (s+1)*shard_size)
    // regardless of thread count. Each shard owns its tape and gradient
    // buffer, so worker scheduling can interleave shards freely; the
    // shard-ordered reduction below rebuilds one fixed FP summation tree.
    const size_t num_shards = (n_total + shard_size - 1) / shard_size;
    EnsureShardContexts(num_shards);
    const auto run_shard = [&](size_t s) {
      KGAG_TRACE_SPAN("train.shard");
      ShardContext& ctx = shard_contexts_[s];
      Tape& tape = *ctx.tape;
      ctx.loss = 0.0;
      const size_t begin = s * shard_size;
      const size_t end = std::min(begin + shard_size, n_total);
      for (size_t e = begin; e < end; ++e) {
        tape.Clear();
        Var scaled;
        if (e < n_group) {
          const GroupTriplet& t = batch.group_triplets[e];
          Rng ex_rng = streams.For(kGroupTreeStream,
                                   batch.group_index_base + e);
          Var pos = ScoreGroupItemOnTape(&tape, t.group, t.positive, &ex_rng);
          Var neg = ScoreGroupItemOnTape(&tape, t.group, t.negative, &ex_rng);
          Var loss = config_.group_loss == GroupLossKind::kMargin
                         ? MarginPairLoss(&tape, pos, neg, config_.margin)
                         : BprPairLoss(&tape, pos, neg);
          scaled = tape.ScalarMul(loss, group_scale);
        } else {
          const size_t j = e - n_group;
          const UserInstance& ui = batch.user_instances[j];
          Rng ex_rng = streams.For(kUserTreeStream,
                                   batch.user_instance_base + j);
          Var logit = ScoreUserItemOnTape(&tape, ui.user, ui.item, &ex_rng);
          Var loss = LogisticLoss(&tape, logit, ui.label);
          scaled = tape.ScalarMul(loss, user_scale);
        }
        {
          KGAG_TRACE_SPAN("train.backward");
          tape.Backward(scaled);
        }
        ctx.loss += tape.value(scaled).item();
      }
    };
    if (pool != nullptr && num_shards > 1) {
      pool->ParallelFor(num_shards, /*grain=*/1, run_shard);
    } else {
      for (size_t s = 0; s < num_shards; ++s) run_shard(s);
    }
    {
      // Deterministic reduction: shard buffers flush into Parameter::grad
      // in shard order; rows within a buffer flush in first-touch order.
      // Identical no matter which threads ran which shards.
      KGAG_TRACE_SPAN("train.reduce");
      for (size_t s = 0; s < num_shards; ++s) {
        ShardContext& ctx = shard_contexts_[s];
        ctx.grads->FlushInto();
        ctx.grads->Reset();
        batch_loss += ctx.loss;
      }
    }
    KGAG_OBS_ONLY(grad_sq_sum += store_.GradSquaredNorm();
                  epoch_examples += n_total;)
    {
      KGAG_TRACE_SPAN("train.optimizer_step");
      optimizer_->Step(&store_, config_.l2);
    }
    total_loss += batch_loss;
    ++num_batches;
    if (mgr != nullptr && config_.checkpoint_every_batches > 0 &&
        num_batches % static_cast<size_t>(config_.checkpoint_every_batches) ==
            0) {
      KGAG_TRACE_SPAN("train.checkpoint");
      const Status saved = mgr->Save(CaptureTrainingState(
          static_cast<uint64_t>(epoch), /*mid_epoch=*/true, num_batches,
          total_loss, selector));
      if (!saved.ok()) {
        // Training proceeds (durability degraded, correctness intact);
        // the manager already bumped ckpt.save_failures.
        KGAG_LOG(Warning) << "mid-epoch checkpoint failed: "
                          << saved.ToString();
      }
    }
    if (config_.after_batch_hook) {
      config_.after_batch_hook(epoch, num_batches);
    }
  }
  const double mean_loss =
      num_batches == 0 ? 0.0 : total_loss / num_batches;
#if KGAG_OBS_ACTIVE
  // Per-epoch training health, snapshotted to the JSONL sink by Fit().
  // grad_norm is the RMS-over-batches L2 norm of the pre-step gradients.
  const double secs = epoch_watch.ElapsedSeconds();
  KGAG_COUNTER_ADD("train.examples", epoch_examples);
  KGAG_COUNTER_ADD("train.batches", num_batches);
  KGAG_GAUGE_SET("train.loss", mean_loss);
  KGAG_GAUGE_SET("train.grad_norm",
                 num_batches == 0
                     ? 0.0
                     : std::sqrt(grad_sq_sum /
                                 static_cast<double>(num_batches)));
  KGAG_GAUGE_SET("train.examples_per_sec",
                 secs > 0.0 ? static_cast<double>(epoch_examples) / secs
                            : 0.0);
#endif
  return mean_loss;
}

void KgagModel::Fit() {
  KGAG_OBS_ONLY(obs::InstallDefaultInstrumentation();)
  KGAG_TRACE_SPAN("train.fit");
  ValidationSelector selector(dataset_, &store_, /*k=*/5,
                              config_.valid_max_interactions);
  // Validation scores on the training workers; parallel evaluation is
  // bit-identical to serial, so the selected epoch does not depend on it.
  selector.set_thread_pool(TrainPool());
  eval_samples_in_use_ = config_.valid_tree_samples;

  std::unique_ptr<ckpt::CheckpointManager> ckpt_mgr;
  int start_epoch = 0;
  uint64_t resume_batches = 0;
  double resume_loss = 0.0;
  if (!config_.checkpoint_dir.empty()) {
    ckpt::CheckpointManager::Options opts;
    opts.dir = config_.checkpoint_dir;
    opts.keep_last = config_.checkpoint_keep_last;
    ckpt_mgr = std::make_unique<ckpt::CheckpointManager>(opts);
    if (config_.resume) {
      Result<ckpt::TrainingState> latest = ckpt_mgr->LoadLatest();
      if (latest.ok()) {
        const Status restored = RestoreTrainingState(*latest, &selector);
        KGAG_CHECK(restored.ok())
            << "checkpoint restore failed: " << restored.ToString();
        start_epoch = static_cast<int>(latest->epoch);
        if (latest->mid_epoch) {
          resume_batches = latest->batches_done;
          resume_loss = latest->partial_loss;
        }
        KGAG_LOG(Info) << name() << " resumed from "
                       << config_.checkpoint_dir << " at epoch "
                       << start_epoch
                       << (latest->mid_epoch ? " (mid-epoch)" : "");
      } else {
        // NotFound = first run with --resume: start fresh. Anything else
        // (unreadable dir, all snapshots corrupt) is worth a warning but
        // not fatal — training from scratch is the safe fallback.
        if (!latest.status().IsNotFound()) {
          KGAG_LOG(Warning) << "checkpoint resume unavailable: "
                            << latest.status().ToString();
        }
      }
    }
  }

  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    const double loss = TrainEpochCheckpointed(
        &train_rng_, epoch, ckpt_mgr.get(), &selector, resume_batches,
        resume_loss);
    resume_batches = 0;
    resume_loss = 0.0;
    epoch_losses_.push_back(loss);
    double valid_hit = 0.0;
    if (config_.select_by_validation) {
      KGAG_TRACE_SPAN("train.validation");
      valid_hit = selector.Observe(this);
    }
    if (ckpt_mgr != nullptr) {
      KGAG_TRACE_SPAN("train.checkpoint");
      const Status saved = ckpt_mgr->Save(CaptureTrainingState(
          static_cast<uint64_t>(epoch) + 1, /*mid_epoch=*/false,
          /*batches_done=*/0, /*partial_loss=*/0.0, &selector));
      if (!saved.ok()) {
        KGAG_LOG(Warning) << "epoch checkpoint failed: " << saved.ToString();
      }
    }
    KGAG_GAUGE_SET("train.epoch", epoch + 1);
    KGAG_GAUGE_SET("train.valid_hit_at_5", valid_hit);
    KGAG_OBS_SNAPSHOT("epoch");
    if (config_.verbose) {
      KGAG_LOG(Info) << name() << " epoch " << epoch + 1 << "/"
                     << config_.epochs << " loss=" << loss
                     << " valid_hit@5=" << valid_hit;
    }
  }
  if (config_.select_by_validation) selector.RestoreBest();
  eval_samples_in_use_ = config_.eval_tree_samples;
}

ckpt::TrainingState KgagModel::CaptureTrainingState(
    uint64_t epoch, bool mid_epoch, uint64_t batches_done,
    double partial_loss, const ValidationSelector* selector) const {
  ckpt::TrainingState state;
  state.epoch = epoch;
  state.mid_epoch = mid_epoch;
  state.batches_done = batches_done;
  state.partial_loss = partial_loss;
  state.epoch_losses = epoch_losses_;
  {
    std::ostringstream out(std::ios::binary);
    const Status st = SaveParameters(store_, &out);
    KGAG_CHECK(st.ok()) << st.ToString();
    state.params = out.str();
  }
  {
    std::ostringstream out(std::ios::binary);
    const Status st = optimizer_->SaveState(&out);
    KGAG_CHECK(st.ok()) << st.ToString();
    state.optimizer = out.str();
  }
  {
    std::ostringstream out(std::ios::binary);
    bio::WriteString(&out, init_rng_.SaveState());
    bio::WriteString(&out, train_rng_.SaveState());
    // Counter-based stream record: the derivation is stateless, so the
    // base seed is the entire stream state (epoch/example coordinates are
    // re-derived from the batcher cursors on resume).
    bio::WriteU64(&out, kRngStreamTag);
    bio::WriteU64(&out, config_.seed);
    state.rng = out.str();
  }
  {
    std::ostringstream out(std::ios::binary);
    const Status st = batcher_.SaveState(&out);
    KGAG_CHECK(st.ok()) << st.ToString();
    state.batcher = out.str();
  }
  if (selector != nullptr) {
    std::ostringstream out(std::ios::binary);
    const Status st = selector->SaveState(&out);
    KGAG_CHECK(st.ok()) << st.ToString();
    state.selector = out.str();
  }
  return state;
}

Status KgagModel::RestoreTrainingState(const ckpt::TrainingState& state,
                                       ValidationSelector* selector) {
  {
    std::istringstream in(state.params, std::ios::binary);
    KGAG_RETURN_NOT_OK(LoadParameters(&in, &store_));
  }
  {
    std::istringstream in(state.optimizer, std::ios::binary);
    KGAG_RETURN_NOT_OK(optimizer_->LoadState(&in, store_));
  }
  {
    std::istringstream in(state.rng, std::ios::binary);
    std::string init_state, train_state;
    if (!bio::ReadString(&in, &init_state) ||
        !bio::ReadString(&in, &train_state)) {
      return Status::IoError("truncated rng state");
    }
    if (!init_rng_.LoadState(init_state) ||
        !train_rng_.LoadState(train_state)) {
      return Status::InvalidArgument("malformed rng engine state");
    }
    uint64_t tag = 0;
    if (bio::ReadU64(&in, &tag)) {  // absent in pre-stream checkpoints
      if (tag != kRngStreamTag) {
        return Status::InvalidArgument("unrecognized rng stream record");
      }
      uint64_t stream_seed = 0;
      if (!bio::ReadU64(&in, &stream_seed)) {
        return Status::IoError("truncated rng stream record");
      }
      if (stream_seed != config_.seed) {
        // Streams are derived from the config seed at every draw; a
        // mismatch would silently diverge from the checkpointed run.
        return Status::InvalidArgument(
            "checkpoint rng stream seed does not match config seed");
      }
    }
  }
  {
    std::istringstream in(state.batcher, std::ios::binary);
    KGAG_RETURN_NOT_OK(batcher_.LoadState(&in, state.mid_epoch));
  }
  if (selector != nullptr && !state.selector.empty()) {
    std::istringstream in(state.selector, std::ios::binary);
    KGAG_RETURN_NOT_OK(selector->LoadState(&in));
  }
  epoch_losses_ = state.epoch_losses;
  return Status::OK();
}

namespace {

/// Candidates per scoring pass, and groups per item-propagation chunk.
constexpr size_t kScoreBlock = 64;

}  // namespace

const std::vector<SampledTree>& KgagModel::EvalTrees(EntityId node) {
  std::lock_guard<std::mutex> lock(eval_trees_mu_);
  auto it = eval_trees_.find(node);
  if (it == eval_trees_.end()) {
    // Per-node seed: eval trees must not depend on the order nodes are
    // first scored in, so a reloaded model reproduces scores exactly.
    Rng node_rng(config_.seed * 0x9e3779b97f4a7c15ULL +
                 static_cast<uint64_t>(node) * 0x2545f4914f6cdd1dULL + 2);
    std::vector<SampledTree> trees;
    trees.reserve(config_.eval_tree_samples);
    for (int s = 0; s < config_.eval_tree_samples; ++s) {
      trees.push_back(propagation_->SampleTree(node, &node_rng));
    }
    it = eval_trees_.emplace(node, std::move(trees)).first;
  }
  return it->second;
}

template <typename Fn>
auto KgagModel::WithEvalTape(Fn&& fn) {
  std::unique_ptr<Tape> tape;
  {
    std::lock_guard<std::mutex> lock(eval_tapes_mu_);
    if (!eval_tapes_.empty()) {
      tape = std::move(eval_tapes_.back());
      eval_tapes_.pop_back();
    }
  }
  if (tape == nullptr) tape = std::make_unique<Tape>();
  auto result = fn(tape.get());
  tape->Clear();
  std::lock_guard<std::mutex> lock(eval_tapes_mu_);
  eval_tapes_.push_back(std::move(tape));
  return result;
}

Tensor KgagModel::PropagateEval(EntityId node, const Tensor& queries) {
  const std::vector<SampledTree>& trees = EvalTrees(node);
  const size_t use = std::min<size_t>(
      trees.size(), static_cast<size_t>(std::max(1, eval_samples_in_use_)));
  return WithEvalTape([&](Tape* tape) {
    return propagation_->PropagateMean(tape, {trees.data(), use}, queries);
  });
}

Tensor KgagModel::GroupQuery(GroupId g) const {
  const auto members = dataset_->groups.MembersOf(g);
  const int d = config_.propagation.dim;
  Tensor q(1, d);
  for (UserId u : members) {
    const size_t node = static_cast<size_t>(ckg_.UserNode(u));
    for (int c = 0; c < d; ++c) {
      q.at(0, c) += entity_table_->value.at(node, static_cast<size_t>(c));
    }
  }
  q.Scale(1.0 / static_cast<double>(members.size()));
  return q;
}

Tensor KgagModel::EntityRows(std::span<const EntityId> nodes) const {
  const Tensor& table = entity_table_->value;
  const size_t d = table.cols();
  Tensor out(nodes.size(), d);
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::memcpy(out.data() + i * d,
                table.data() + static_cast<size_t>(nodes[i]) * d,
                d * sizeof(Scalar));
  }
  return out;
}

void KgagModel::BlockReps(
    std::span<const GroupId> groups, std::span<const ItemId> block,
    ThreadPool* pool,
    const std::function<void(size_t, Tensor, Tensor)>& emit) {
  const size_t p = block.size();
  const size_t d = static_cast<size_t>(config_.propagation.dim);
  std::vector<EntityId> item_nodes;
  item_nodes.reserve(p);
  for (ItemId v : block) item_nodes.push_back(ckg_.ItemEntity(v));
  // The candidates' zero-order embeddings: the queries for member
  // propagation (§III-C1: i_e for a group member is the item the group
  // interacts with), and the item rows themselves without the KG.
  const Tensor item_queries = EntityRows(item_nodes);

  // Member-table slot of every member of every group, in group order;
  // groups[i]'s members are [member_begin[i], member_begin[i + 1]).
  std::vector<EntityId> users;  // distinct member nodes, by slot
  std::vector<size_t> member_slot;
  std::vector<size_t> member_begin{0};
  {
    std::unordered_map<EntityId, size_t> slot_of;
    for (GroupId g : groups) {
      for (UserId u : dataset_->groups.MembersOf(g)) {
        const EntityId node = ckg_.UserNode(u);
        const auto [it, fresh] = slot_of.emplace(node, users.size());
        if (fresh) users.push_back(node);
        member_slot.push_back(it->second);
      }
      member_begin.push_back(member_slot.size());
    }
  }

  // (a) Member table, row s·P + q: distinct member s under candidate q.
  Tensor member_table;
  if (config_.use_kg) {
    KGAG_TRACE_SPAN("eval.member_table");
    member_table = Tensor(users.size() * p, d);
    ForEachIndex(pool, users.size(), [&](size_t s) {
      const Tensor rows = PropagateEval(users[s], item_queries);
      std::memcpy(member_table.data() + s * p * d, rows.data(),
                  p * d * sizeof(Scalar));
    });
    KGAG_COUNTER_ADD("eval.member_rows", users.size() * p);
  }

  const Scalar* entities = entity_table_->value.data();
  for (size_t begin = 0; begin < groups.size(); begin += kScoreBlock) {
    const size_t c = std::min(kScoreBlock, groups.size() - begin);
    // (b) Item table of this chunk of groups, row q·C + r: candidate q
    // under the query of group begin + r.
    Tensor item_table;
    if (config_.use_kg) {
      KGAG_TRACE_SPAN("eval.item_reps");
      Tensor queries(c, d);
      for (size_t r = 0; r < c; ++r) {
        queries.SetRow(r, GroupQuery(groups[begin + r]));
      }
      item_table = Tensor(p * c, d);
      ForEachIndex(pool, p, [&](size_t q) {
        const Tensor rows = PropagateEval(item_nodes[q], queries);
        std::memcpy(item_table.data() + q * c * d, rows.data(),
                    c * d * sizeof(Scalar));
      });
      KGAG_COUNTER_ADD("eval.item_rows", p * c);
    }

    // (c) Gather each group's rows from the tables and hand them on.
    KGAG_TRACE_SPAN("eval.logits");
    ForEachIndex(pool, c, [&](size_t r) {
      const size_t i = begin + r;
      const size_t first = member_begin[i];
      const size_t l = member_begin[i + 1] - first;
      Tensor member_reps(p * l, d);
      for (size_t q = 0; q < p; ++q) {
        for (size_t m = 0; m < l; ++m) {
          const size_t slot = member_slot[first + m];
          // Zero-order member rows do not depend on the query.
          const Scalar* row =
              config_.use_kg
                  ? member_table.data() + (slot * p + q) * d
                  : entities + static_cast<size_t>(users[slot]) * d;
          std::memcpy(member_reps.data() + (q * l + m) * d, row,
                      d * sizeof(Scalar));
        }
      }
      Tensor item_reps = item_queries;
      if (config_.use_kg) {
        for (size_t q = 0; q < p; ++q) {
          std::memcpy(item_reps.data() + q * d,
                      item_table.data() + (q * c + r) * d,
                      d * sizeof(Scalar));
        }
      }
      emit(i, std::move(member_reps), std::move(item_reps));
    });
  }
}

Tensor KgagModel::ServingUserReps() {
  const int d = config_.propagation.dim;
  Tensor out(static_cast<size_t>(dataset_->num_users),
             static_cast<size_t>(d));
  for (UserId u = 0; u < dataset_->num_users; ++u) {
    const EntityId node = ckg_.UserNode(u);
    const Tensor q = EntityRows({&node, 1});
    out.SetRow(static_cast<size_t>(u),
               config_.use_kg ? PropagateEval(node, q) : q);
  }
  return out;
}

Tensor KgagModel::ServingItemReps() {
  const int d = config_.propagation.dim;
  Tensor out(static_cast<size_t>(dataset_->num_items),
             static_cast<size_t>(d));
  for (ItemId v = 0; v < dataset_->num_items; ++v) {
    const EntityId e = ckg_.ItemEntity(v);
    const Tensor q = EntityRows({&e, 1});
    out.SetRow(static_cast<size_t>(v),
               config_.use_kg ? PropagateEval(e, q) : q);
  }
  return out;
}

std::vector<double> KgagModel::ScoreGroup(GroupId g,
                                          std::span<const ItemId> items) {
  return ScoreGroups({&g, 1}, items, /*pool=*/nullptr);
}

std::vector<double> KgagModel::ScoreGroups(std::span<const GroupId> groups,
                                           std::span<const ItemId> items,
                                           ThreadPool* pool) {
  const size_t n = items.size();
  std::vector<double> out(groups.size() * n);
  // A candidate's score does not depend on the others in its pass, so
  // candidates go through in fixed blocks: the member and item tables
  // and the tape's arena then stay one block's size (the PI peer matrix
  // alone is P·L·(L−1) rows).
  for (size_t b = 0; b < n; b += kScoreBlock) {
    const std::span<const ItemId> block =
        items.subspan(b, std::min(kScoreBlock, n - b));
    BlockReps(groups, block, pool,
              [&](size_t i, Tensor member_reps, Tensor item_reps) {
                const Tensor scores = GroupLogits(std::move(member_reps),
                                                  std::move(item_reps));
                std::copy(scores.data(), scores.data() + scores.size(),
                          out.begin() + static_cast<ptrdiff_t>(i * n + b));
              });
  }
  return out;
}

Tensor KgagModel::GroupLogits(Tensor member_reps, Tensor item_reps) {
  return WithEvalTape([&](Tape* tape) {
    Var item_v = tape->Constant(std::move(item_reps));
    Var group = aggregator_->AggregateOnTape(
        tape, tape->Constant(std::move(member_reps)), item_v);
    // Eq. (14); copied off the tape's arena, which the lease rewinds.
    return Tensor(tape->value(tape->RowDot(group, item_v)));
  });
}

GroupExplanation KgagModel::ExplainGroup(GroupId g, ItemId v) {
  const auto members = dataset_->groups.MembersOf(g);
  GroupExplanation out;
  out.members.assign(members.begin(), members.end());
  BlockReps({&g, 1}, {&v, 1}, /*pool=*/nullptr,
            [&](size_t, Tensor member_reps, Tensor item_reps) {
              out.attention = aggregator_->Explain(member_reps, item_reps);
              out.prediction = SigmoidScalar(GroupLogits(
                  std::move(member_reps), std::move(item_reps))[0]);
            });
  return out;
}

double KgagModel::PredictGroupItem(GroupId g, ItemId v) {
  const ItemId items[1] = {v};
  return SigmoidScalar(ScoreGroup(g, items)[0]);
}

}  // namespace kgag
