#include "baselines/kgcn.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "models/losses.h"
#include "models/validation.h"

namespace kgag {

namespace {

/// Users per UserScores propagation pass.
constexpr size_t kUserBlock = 64;

}  // namespace

KgcnGroupRecommender::KgcnGroupRecommender(const GroupRecDataset* dataset,
                                           KgcnConfig config,
                                           ScoreAggregation aggregation)
    : dataset_(dataset),
      config_(config),
      aggregation_(aggregation),
      init_rng_(config.base.seed),
      batcher_(dataset,
               Batcher::Options{config.base.batch_size,
                                config.base.user_ratio,
                                config.base.pairs_per_epoch}),
      train_rng_(config.base.seed + 1) {}

Result<std::unique_ptr<KgcnGroupRecommender>> KgcnGroupRecommender::Create(
    const GroupRecDataset* dataset, KgcnConfig config,
    ScoreAggregation aggregation) {
  if (dataset == nullptr) return Status::InvalidArgument("null dataset");
  auto model = std::unique_ptr<KgcnGroupRecommender>(
      new KgcnGroupRecommender(dataset, config, aggregation));
  KGAG_ASSIGN_OR_RETURN(
      model->item_kg_,
      KnowledgeGraph::Build(dataset->num_entities, dataset->num_relations,
                            dataset->kg_triples));
  const int d = config.propagation.dim;
  model->user_table_ = model->store_.Create(
      "kgcn.users", dataset->num_users, d, Init::kNormal01, &model->init_rng_);
  model->entity_table_ = model->store_.Create(
      "kgcn.entities", dataset->num_entities, d, Init::kNormal01,
      &model->init_rng_);
  model->propagation_.emplace(&model->item_kg_, model->entity_table_,
                              &model->store_, config.propagation,
                              &model->init_rng_);
  model->optimizer_ = std::make_unique<Adam>(config.base.learning_rate);
  return model;
}

std::string KgcnGroupRecommender::name() const {
  return std::string("KGCN+") + AggregationName(aggregation_);
}

Var KgcnGroupRecommender::ScorePairOnTape(Tape* tape, UserId u, ItemId v,
                                          Rng* rng) {
  Var user = tape->Gather(user_table_, {static_cast<size_t>(u)});
  SampledTree tree =
      propagation_->SampleTree(dataset_->item_to_entity[v], rng);
  Var item_rep = propagation_->PropagateOnTape(tape, tree, user);
  return tape->DotAll(user, item_rep);
}

double KgcnGroupRecommender::TrainEpoch(Rng* rng) {
  batcher_.BeginEpoch(rng);
  MiniBatch batch;
  double total = 0.0;
  size_t num_batches = 0;
  Tape tape;
  while (batcher_.NextBatch(rng, &batch)) {
    double batch_loss = 0.0;
    const double group_scale =
        batch.group_triplets.empty()
            ? 0.0
            : config_.base.beta /
                  static_cast<double>(batch.group_triplets.size());
    const double user_scale =
        batch.user_instances.empty()
            ? 0.0
            : (1.0 - config_.base.beta) /
                  static_cast<double>(batch.user_instances.size());

    for (const GroupTriplet& t : batch.group_triplets) {
      tape.Clear();
      const auto members = dataset_->groups.MembersOf(t.group);
      auto group_score = [&](ItemId v) {
        std::vector<Var> scores;
        scores.reserve(members.size());
        for (UserId u : members) {
          scores.push_back(ScorePairOnTape(&tape, u, v, rng));
        }
        return AggregateScoresOnTape(&tape, tape.ConcatRows(scores),
                                     aggregation_);
      };
      Var pos = group_score(t.positive);
      Var neg = group_score(t.negative);
      Var loss = config_.base.group_loss == GroupLossKind::kMargin
                     ? MarginPairLoss(&tape, pos, neg, config_.base.margin)
                     : BprPairLoss(&tape, pos, neg);
      Var scaled = tape.ScalarMul(loss, group_scale);
      tape.Backward(scaled);
      batch_loss += tape.value(scaled).item();
    }
    for (const UserInstance& ui : batch.user_instances) {
      tape.Clear();
      Var logit = ScorePairOnTape(&tape, ui.user, ui.item, rng);
      Var scaled =
          tape.ScalarMul(LogisticLoss(&tape, logit, ui.label), user_scale);
      tape.Backward(scaled);
      batch_loss += tape.value(scaled).item();
    }
    optimizer_->Step(&store_, config_.base.l2);
    total += batch_loss;
    ++num_batches;
  }
  return num_batches == 0 ? 0.0 : total / num_batches;
}

void KgcnGroupRecommender::Fit() {
  ValidationSelector selector(dataset_, &store_);
  for (int epoch = 0; epoch < config_.base.epochs; ++epoch) {
    const double loss = TrainEpoch(&train_rng_);
    epoch_losses_.push_back(loss);
    if (config_.base.select_by_validation) selector.Observe(this);
    if (config_.base.verbose) {
      KGAG_LOG(Info) << name() << " epoch " << epoch + 1 << " loss=" << loss;
    }
  }
  if (config_.base.select_by_validation) selector.RestoreBest();
}

const std::vector<SampledTree>& KgcnGroupRecommender::EvalTrees(
    EntityId item_entity) {
  std::lock_guard<std::mutex> lock(eval_trees_mu_);
  auto it = eval_trees_.find(item_entity);
  if (it == eval_trees_.end()) {
    // Per-node seed: order-independent eval trees (see KgagModel).
    Rng node_rng(config_.base.seed * 0x9e3779b97f4a7c15ULL +
                 static_cast<uint64_t>(item_entity) * 0x2545f4914f6cdd1dULL +
                 2);
    std::vector<SampledTree> trees;
    trees.reserve(config_.eval_tree_samples);
    for (int s = 0; s < config_.eval_tree_samples; ++s) {
      trees.push_back(propagation_->SampleTree(item_entity, &node_rng));
    }
    it = eval_trees_.emplace(item_entity, std::move(trees)).first;
  }
  return it->second;
}

std::vector<double> KgcnGroupRecommender::UserScores(
    ItemId v, std::span<const UserId> users) {
  // Each user embedding is a query for the item's propagation, averaged
  // over the eval receptive-field samples. Users go through in blocks, so
  // the tape holds one block's tree layers rather than every user's; a
  // block's rows equal its one-query passes bit for bit, so neither the
  // block size nor the other users change a score.
  const Tensor& table = user_table_->value;  // (m x d)
  const size_t d = table.cols();
  const std::vector<SampledTree>& trees =
      EvalTrees(dataset_->item_to_entity[v]);
  Tape tape;
  std::vector<double> scores(users.size());
  for (size_t b = 0; b < users.size(); b += kUserBlock) {
    const size_t rows = std::min(kUserBlock, users.size() - b);
    Tensor queries(rows, d);
    for (size_t u = 0; u < rows; ++u) {
      std::memcpy(queries.data() + u * d,
                  table.data() + static_cast<size_t>(users[b + u]) * d,
                  d * sizeof(Scalar));
    }
    const Tensor reps = propagation_->PropagateMean(&tape, trees, queries);
    for (size_t u = 0; u < rows; ++u) {
      Scalar s = 0;
      for (size_t c = 0; c < d; ++c) s += queries.at(u, c) * reps.at(u, c);
      scores[b + u] = s;
    }
  }
  return scores;
}

std::vector<double> KgcnGroupRecommender::ScoreGroup(
    GroupId g, std::span<const ItemId> items) {
  const auto members = dataset_->groups.MembersOf(g);
  std::vector<double> out(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    out[i] = AggregateScores(UserScores(items[i], members), aggregation_);
  }
  return out;
}

std::vector<double> KgcnGroupRecommender::ScoreGroups(
    std::span<const GroupId> groups, std::span<const ItemId> items,
    ThreadPool* pool) {
  // One all-user score row per item, computed once for every group.
  std::vector<UserId> all_users(static_cast<size_t>(dataset_->num_users));
  std::iota(all_users.begin(), all_users.end(), UserId{0});
  std::vector<std::vector<double>> rows(items.size());
  ForEachIndex(pool, items.size(), [&](size_t i) {
    rows[i] = UserScores(items[i], all_users);
  });

  const size_t n = items.size();
  std::vector<double> out(groups.size() * n);
  for (size_t g = 0; g < groups.size(); ++g) {
    const auto members = dataset_->groups.MembersOf(groups[g]);
    std::vector<double> member_scores(members.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t m = 0; m < members.size(); ++m) {
        member_scores[m] = rows[i][static_cast<size_t>(members[m])];
      }
      out[g * n + i] = AggregateScores(member_scores, aggregation_);
    }
  }
  return out;
}

std::vector<double> KgcnGroupRecommender::ScoreUser(
    UserId u, std::span<const ItemId> items) {
  std::vector<double> out(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    out[i] = UserScores(items[i], {&u, 1})[0];
  }
  return out;
}

}  // namespace kgag
