// Validation-based model selection: the paper holds out 20% of the
// group-item interactions as a validation set (§IV-B); every trainable
// model here checks validation hit@k after each epoch and restores the
// best-epoch weights when training ends.
#ifndef KGAG_MODELS_VALIDATION_H_
#define KGAG_MODELS_VALIDATION_H_

#include <istream>
#include <ostream>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "eval/ranking_evaluator.h"
#include "tensor/parameter.h"

namespace kgag {

/// \brief Tracks the best validation score and snapshots parameters.
class ValidationSelector {
 public:
  /// \param dataset provides the validation split; must outlive this
  /// \param store parameters to snapshot/restore; must outlive this
  /// \param max_interactions caps the per-epoch validation slice (a
  ///        deterministic subsample) so that epoch-wise selection stays
  ///        cheap on models with expensive scoring.
  ValidationSelector(const GroupRecDataset* dataset, ParameterStore* store,
                     size_t k = 5, size_t max_interactions = 250)
      : dataset_(dataset), store_(store), evaluator_(dataset, k) {
    valid_slice_ = dataset->split.valid;
    if (valid_slice_.size() > max_interactions) {
      Rng rng(0x5eed);  // fixed: the slice must be stable across epochs
      rng.Shuffle(&valid_slice_);
      valid_slice_.resize(max_interactions);
    }
  }

  /// Borrowed pool for Observe's evaluation (nullptr: serial); see
  /// RankingEvaluator::set_thread_pool.
  void set_thread_pool(ThreadPool* pool) { evaluator_.set_thread_pool(pool); }

  /// Evaluates the scorer on the (capped) validation slice; snapshots the
  /// current parameter values if this is the best epoch so far. Returns
  /// the validation hit@k.
  double Observe(GroupScorer* scorer) {
    const EvalResult r = evaluator_.Evaluate(scorer, valid_slice_);
    // Tie-break toward later epochs only on strict improvement, so runs
    // are reproducible.
    if (!has_best_ || r.hit_at_k > best_hit_) {
      has_best_ = true;
      best_hit_ = r.hit_at_k;
      snapshot_.clear();
      snapshot_.reserve(store_->size());
      for (const auto& p : store_->params()) snapshot_.push_back(p->value);
    }
    history_.push_back(r.hit_at_k);
    return r.hit_at_k;
  }

  /// Restores the best-epoch weights (no-op if Observe was never called).
  void RestoreBest() {
    if (!has_best_) return;
    for (size_t i = 0; i < store_->size(); ++i) {
      store_->at(i)->value = snapshot_[i];
    }
  }

  double best_hit() const { return best_hit_; }
  const std::vector<double>& history() const { return history_; }

  /// Serializes the selection state (best hit, per-epoch history and the
  /// best-epoch parameter snapshot) so a resumed run restores the same
  /// weights at RestoreBest() as an uninterrupted one.
  Status SaveState(std::ostream* out) const {
    if (out == nullptr) return Status::InvalidArgument("null stream");
    bio::WriteU8(out, has_best_ ? 1 : 0);
    bio::WriteDouble(out, best_hit_);
    bio::WritePodVector(out, history_);
    bio::WriteU64(out, snapshot_.size());
    for (const Tensor& t : snapshot_) {
      bio::WriteU64(out, t.rows());
      bio::WriteU64(out, t.cols());
      out->write(reinterpret_cast<const char*>(t.data()),
                 static_cast<std::streamsize>(t.size() * sizeof(Scalar)));
    }
    if (!out->good()) return Status::IoError("selector state write failed");
    return Status::OK();
  }

  /// Restores a SaveState snapshot; tensor shapes are validated against
  /// the store before any bulk read is trusted.
  Status LoadState(std::istream* in) {
    if (in == nullptr) return Status::InvalidArgument("null stream");
    uint8_t has_best = 0;
    double best_hit = 0.0;
    std::vector<double> history;
    uint64_t count = 0;
    if (!bio::ReadU8(in, &has_best) || !bio::ReadDouble(in, &best_hit) ||
        !bio::ReadPodVector(in, &history) || !bio::ReadU64(in, &count)) {
      return Status::IoError("truncated selector state");
    }
    if (count != 0 && count != store_->size()) {
      return Status::InvalidArgument("selector snapshot count mismatch");
    }
    std::vector<Tensor> snapshot;
    snapshot.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      const Parameter* p = store_->params()[i].get();
      uint64_t rows = 0, cols = 0;
      if (!bio::ReadU64(in, &rows) || !bio::ReadU64(in, &cols)) {
        return Status::IoError("truncated selector snapshot shape");
      }
      if (rows != p->value.rows() || cols != p->value.cols()) {
        return Status::InvalidArgument("selector snapshot shape mismatch");
      }
      Tensor t(rows, cols);
      in->read(reinterpret_cast<char*>(t.data()),
               static_cast<std::streamsize>(t.size() * sizeof(Scalar)));
      if (!in->good()) return Status::IoError("truncated selector snapshot");
      snapshot.push_back(std::move(t));
    }
    has_best_ = has_best != 0;
    best_hit_ = best_hit;
    history_ = std::move(history);
    snapshot_ = std::move(snapshot);
    return Status::OK();
  }

 private:
  const GroupRecDataset* dataset_;
  ParameterStore* store_;
  RankingEvaluator evaluator_;
  std::vector<Interaction> valid_slice_;
  bool has_best_ = false;
  double best_hit_ = 0.0;
  std::vector<Tensor> snapshot_;
  std::vector<double> history_;
};

}  // namespace kgag

#endif  // KGAG_MODELS_VALIDATION_H_
