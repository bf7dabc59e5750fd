// Warm-start fine-tuning loop for the online world (DESIGN.md §15).
//
// The live pipeline this drives:
//
//   KGAGCKP1 checkpoint ──resume──▶ KgagModel (full optimizer/RNG state)
//            ▲                         │
//            └──save per refresh       │ micro-epochs on the refreshed CKG
//   stream events ──▶ DeltaKg overlay ─┤
//                     (no rebuild)     ▼
//                      compaction ─▶ frozen artifact ──atomic rename──▶
//                                    watched path (serve_model --watch
//                                    hot-swaps it in; serving_engine.h)
//
// ApplyEvents() consumes the deterministic InteractionStream: each event
// lands in the Interact-edge overlay and the owned dataset's pair log —
// O(1) per event, the base CSR untouched. Refresh() then (1) compacts the
// overlay into a fresh CSR and installs it in the model (fixed node
// universe, so every embedding row stays meaningful), (2) runs a few
// fine-tuning micro-epochs continuing the checkpointed optimizer/RNG
// trajectory, (3) saves a new checkpoint, and (4) freezes + atomically
// publishes a new versioned artifact. Everything is deterministic: two
// trainers resumed from the same checkpoint and fed the same stream
// window publish byte-identical artifacts (tests/test_online.cc).
#ifndef KGAG_ONLINE_ONLINE_TRAINER_H_
#define KGAG_ONLINE_ONLINE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "models/kgag_model.h"
#include "online/delta_kg.h"
#include "online/stream.h"
#include "tensor/quant.h"

namespace kgag {
namespace online {

/// \brief One Refresh() outcome.
struct RefreshReport {
  uint64_t version = 0;          ///< monotonic artifact version (v1, v2, …)
  uint64_t events_applied = 0;   ///< stream events consumed since last refresh
  uint64_t new_edges = 0;        ///< directed Interact edges compacted in
  std::vector<double> micro_epoch_losses;
  std::string artifact_path;     ///< where the artifact was published
  uint64_t train_micros = 0;
  uint64_t freeze_micros = 0;
};

/// \brief Owns the online fine-tuning loop: dataset copy, model, overlay,
/// stream cursor, artifact versioning. Single-threaded by design — run it
/// on one refresh thread; the serving side stays concurrent via hot-swap.
class OnlineTrainer {
 public:
  struct Options {
    /// Model/training config; must match the checkpoint being resumed
    /// (same seed and architecture). pairs_per_epoch bounds a
    /// micro-epoch's cost — online refreshes want hundreds of pairs, not
    /// the full corpus.
    KgagConfig config;
    /// Checkpoint directory to warm-start from and to keep saving into.
    /// Empty = cold start (fresh parameters) and no checkpoint saves.
    std::string checkpoint_dir;
    /// Watched artifact path each refresh publishes to (atomic rename —
    /// a watcher never sees a partial file). Empty = don't publish.
    std::string artifact_path;
    /// Fine-tuning epochs per refresh.
    int micro_epochs = 1;
    /// Rep-table precision of published artifacts.
    QuantType precision = QuantType::kFp64;
    /// Selects nothing: every refresh publishes KGAGSRV2, the only
    /// serving format. Kept only so existing callers that assign it
    /// still compile; it will be removed.
    bool mmap_layout = false;
    /// Save a checkpoint after each refresh (needs checkpoint_dir).
    bool save_checkpoints = true;
  };

  /// Builds the model over an OWNED copy of `dataset` and warm-starts
  /// from the newest checkpoint in options.checkpoint_dir when one
  /// exists. `stream` defines the event source; consumption starts at
  /// index 0.
  static Result<std::unique_ptr<OnlineTrainer>> Create(
      GroupRecDataset dataset, const InteractionStream& stream,
      Options options);

  /// Consumes the next `n` stream events into the overlay + pair log.
  /// Returns how many were new edges (duplicates are absorbed silently —
  /// a user re-watching an item is not a new fact).
  size_t ApplyEvents(size_t n);

  /// Compact → install → fine-tune → checkpoint → freeze → publish.
  /// Cheap no-op-ish when no events arrived (still retrains/publishes,
  /// callers gate on pending_events() if they want to skip).
  Result<RefreshReport> Refresh();

  /// True when Create() found and restored a checkpoint.
  bool resumed_from_checkpoint() const { return resumed_; }
  /// Artifact versions published so far.
  uint64_t version() const { return version_; }
  /// Next stream index ApplyEvents will read.
  uint64_t next_event() const { return next_event_; }
  /// Events applied (new edges) since the last Refresh.
  size_t pending_events() const { return delta_->added().size(); }

  const DeltaKg& delta() const { return *delta_; }
  const KgagModel& model() const { return *model_; }
  KgagModel* mutable_model() { return model_.get(); }
  const GroupRecDataset& dataset() const { return *dataset_; }
  const InteractionStream& stream() const { return stream_; }

 private:
  OnlineTrainer(std::unique_ptr<GroupRecDataset> dataset,
                const InteractionStream& stream, Options options);

  Options options_;
  /// Owned, mutable: stream events append to its user_item matrix. Heap
  /// allocated so the model's borrowed pointer survives moves.
  std::unique_ptr<GroupRecDataset> dataset_;
  InteractionStream stream_;
  std::unique_ptr<KgagModel> model_;
  std::unique_ptr<DeltaKg> delta_;
  /// (user, item) pair log the current model CKG was built from.
  std::vector<std::pair<int32_t, int32_t>> base_pairs_;
  uint64_t next_event_ = 0;
  uint64_t events_since_refresh_ = 0;
  uint64_t version_ = 0;
  bool resumed_ = false;
};

}  // namespace online
}  // namespace kgag

#endif  // KGAG_ONLINE_ONLINE_TRAINER_H_
