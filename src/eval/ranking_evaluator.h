// Full-ranking evaluation protocol of §IV-C: for every group with test
// positives, score every item in the test pool, rank descending, and
// average hit@k / rec@k (and ndcg@k) across groups.
#ifndef KGAG_EVAL_RANKING_EVALUATOR_H_
#define KGAG_EVAL_RANKING_EVALUATOR_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/group_scorer.h"

namespace kgag {

class ThreadPool;

/// \brief Averaged ranking metrics over the evaluated groups.
struct EvalResult {
  double hit_at_k = 0.0;
  double recall_at_k = 0.0;
  double ndcg_at_k = 0.0;
  size_t num_groups = 0;
  size_t k = 0;

  std::string ToString() const;
};

/// \brief Runs the ranking protocol against a GroupScorer.
class RankingEvaluator {
 public:
  /// \param dataset corpus; must outlive the evaluator
  /// \param k cutoff (the paper reports k = 5)
  explicit RankingEvaluator(const GroupRecDataset* dataset, size_t k = 5);

  /// Installs a borrowed pool (nullptr restores the serial path). The
  /// pool is handed to GroupScorer::ScoreGroups, and groups are ranked
  /// concurrently into preallocated per-group slots and reduced in a
  /// fixed group order, so the metrics are bit-identical to the serial
  /// path. The scorer must then be safe to use from multiple threads (the
  /// model scorers here are read-only at evaluation time; anything
  /// stateful needs its own synchronization).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Evaluates over the held-out `interactions` (test or validation
  /// split). The candidate pool is the union of items in `interactions`,
  /// matching "prediction scores to each item in test set".
  EvalResult Evaluate(GroupScorer* scorer,
                      const std::vector<Interaction>& interactions) const;

  /// Convenience: evaluates on the dataset's test split.
  EvalResult EvaluateTest(GroupScorer* scorer) const {
    return Evaluate(scorer, dataset_->split.test);
  }
  /// Convenience: evaluates on the validation split.
  EvalResult EvaluateValid(GroupScorer* scorer) const {
    return Evaluate(scorer, dataset_->split.valid);
  }

 private:
  const GroupRecDataset* dataset_;
  size_t k_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace kgag

#endif  // KGAG_EVAL_RANKING_EVALUATOR_H_
