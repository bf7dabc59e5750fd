#include "online/online_trainer.h"

#include <utility>

#include "ckpt/checkpoint.h"
#include "common/stopwatch.h"
#include "obs/obs.h"
#include "serve/frozen_model.h"

namespace kgag {
namespace online {

OnlineTrainer::OnlineTrainer(std::unique_ptr<GroupRecDataset> dataset,
                             const InteractionStream& stream,
                             Options options)
    : options_(std::move(options)),
      dataset_(std::move(dataset)),
      stream_(stream) {}

Result<std::unique_ptr<OnlineTrainer>> OnlineTrainer::Create(
    GroupRecDataset dataset, const InteractionStream& stream,
    Options options) {
  auto trainer = std::unique_ptr<OnlineTrainer>(new OnlineTrainer(
      std::make_unique<GroupRecDataset>(std::move(dataset)), stream,
      std::move(options)));
  KGAG_ASSIGN_OR_RETURN(
      trainer->model_,
      KgagModel::Create(trainer->dataset_.get(), trainer->options_.config));
  for (const Interaction& it : trainer->dataset_->user_item.ToPairs()) {
    trainer->base_pairs_.emplace_back(it.row, it.item);
  }
  trainer->delta_ = std::make_unique<DeltaKg>(&trainer->model_->ckg());

  if (!trainer->options_.checkpoint_dir.empty()) {
    ckpt::CheckpointManager mgr({.dir = trainer->options_.checkpoint_dir});
    Result<ckpt::TrainingState> state = mgr.LoadLatest();
    if (state.ok()) {
      // Warm start: parameters, Adam moments, both RNG engines and the
      // batcher trajectory resume exactly where offline training (or the
      // previous refresh loop) checkpointed.
      KGAG_RETURN_NOT_OK(trainer->model_->RestoreTrainingState(
          *state, /*selector=*/nullptr));
      trainer->resumed_ = true;
    } else if (!state.status().IsNotFound()) {
      return state.status();
    }
    // NotFound = cold start on fresh parameters; refreshes will create
    // the first checkpoint.
  }
  return trainer;
}

size_t OnlineTrainer::ApplyEvents(size_t n) {
  size_t accepted = 0;
  for (size_t i = 0; i < n; ++i) {
    const StreamEvent ev = stream_.Event(next_event_++);
    if (delta_->AddInteraction(ev.user, ev.item)) ++accepted;
  }
  events_since_refresh_ += n;
  KGAG_COUNTER_ADD("online.stream.events", static_cast<uint64_t>(n));
  return accepted;
}

Result<RefreshReport> OnlineTrainer::Refresh() {
  RefreshReport report;
  report.events_applied = events_since_refresh_;
  report.new_edges = delta_->overlay_edges();

  // (1) Compaction: fold base pairs + overlay through the canonical
  // interaction-matrix rebuild. The model's RefreshInteractions performs
  // the identical BuildCollaborativeKg the standalone DeltaKg::Compact
  // does (pinned bit-identical by tests/test_online.cc), installing the
  // fresh CSR without touching the fixed node universe.
  std::vector<std::pair<int32_t, int32_t>> merged = base_pairs_;
  for (const auto& [u, v] : delta_->added()) merged.emplace_back(u, v);
  std::vector<Interaction> merged_inter;
  merged_inter.reserve(merged.size());
  for (const auto& [u, v] : merged) merged_inter.push_back(Interaction{u, v});
  dataset_->user_item = InteractionMatrix::FromPairs(
      dataset_->num_users, dataset_->num_items, std::move(merged_inter));
  std::vector<std::pair<int32_t, int32_t>> canonical;
  canonical.reserve(dataset_->user_item.num_interactions());
  for (const Interaction& it : dataset_->user_item.ToPairs()) {
    canonical.emplace_back(it.row, it.item);
  }
  KGAG_RETURN_NOT_OK(model_->RefreshInteractions(canonical));

  // (2) Fine-tune: continue the restored optimizer/RNG trajectory for a
  // few micro-epochs over the refreshed graph and interaction orders.
  Stopwatch train_watch;
  for (int e = 0; e < options_.micro_epochs; ++e) {
    report.micro_epoch_losses.push_back(model_->FineTuneEpoch());
  }
  report.train_micros = train_watch.ElapsedMicros();

  // (3) Durable state: the next process (or the determinism test) can
  // resume this exact trajectory.
  if (options_.save_checkpoints && !options_.checkpoint_dir.empty()) {
    ckpt::CheckpointManager mgr({.dir = options_.checkpoint_dir});
    KGAG_RETURN_NOT_OK(mgr.Save(model_->CaptureTrainingState(
        model_->epoch_losses().size(), /*mid_epoch=*/false,
        /*batches_done=*/0, /*partial_loss=*/0.0, /*selector=*/nullptr)));
  }

  // (4) Publish: freeze, optionally quantize, atomically rename into the
  // watched path. A serving process polling that path either sees the
  // old complete artifact or the new complete artifact, never bytes in
  // between.
  Stopwatch freeze_watch;
  KGAG_ASSIGN_OR_RETURN(serve::FrozenModel frozen,
                        serve::FreezeKgagModel(model_.get()));
  if (options_.precision != QuantType::kFp64) {
    KGAG_ASSIGN_OR_RETURN(
        frozen, serve::QuantizeFrozenModel(frozen, options_.precision));
  }
  if (!options_.artifact_path.empty()) {
    KGAG_RETURN_NOT_OK(
        serve::SaveFrozenModelV2(frozen, options_.artifact_path));
    report.artifact_path = options_.artifact_path;
  }
  report.freeze_micros = freeze_watch.ElapsedMicros();

  // (5) Rebase the overlay on the installed graph; the compacted pairs
  // become the next refresh's base.
  base_pairs_ = std::move(canonical);
  delta_->Rebase(&model_->ckg());
  events_since_refresh_ = 0;
  report.version = ++version_;

  KGAG_COUNTER_ADD("online.refresh.count", 1);
  KGAG_GAUGE_SET("online.artifact.version", static_cast<double>(version_));
  KGAG_GAUGE_SET("online.refresh.train_micros",
                 static_cast<double>(report.train_micros));
  KGAG_GAUGE_SET("online.refresh.freeze_micros",
                 static_cast<double>(report.freeze_micros));
  return report;
}

}  // namespace online
}  // namespace kgag
