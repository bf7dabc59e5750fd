// Scoring interfaces that decouple the evaluator from concrete models.
#ifndef KGAG_EVAL_GROUP_SCORER_H_
#define KGAG_EVAL_GROUP_SCORER_H_

#include <span>
#include <vector>

#include "data/interactions.h"

namespace kgag {

class ThreadPool;

/// \brief Anything that can score candidate items for a group; the
/// prediction function F(g, v | Θ) of §III-A.
class GroupScorer {
 public:
  virtual ~GroupScorer() = default;

  /// Prediction scores for group g over `items`; higher = more preferred.
  /// Returned vector is parallel to `items`.
  virtual std::vector<double> ScoreGroup(GroupId g,
                                         std::span<const ItemId> items) = 0;

  /// Scores every group in `groups` over the same `items`: a row-major
  /// (groups x items) block whose row i equals ScoreGroup(groups[i],
  /// items) bit for bit. `pool` (nullable) is borrowed for the call. The
  /// default runs ScoreGroup per group, concurrently when a pool is given,
  /// so it must then be safe to call from several threads; models whose
  /// groups share work (members, candidate items) override it.
  virtual std::vector<double> ScoreGroups(std::span<const GroupId> groups,
                                          std::span<const ItemId> items,
                                          ThreadPool* pool);
};

/// \brief Individual (per-user) scoring, used by score-aggregation
/// baselines (CF+X, KGCN+X) and by the user-item loss term.
class IndividualScorer {
 public:
  virtual ~IndividualScorer() = default;

  /// Prediction scores for user u over `items`.
  virtual std::vector<double> ScoreUser(UserId u,
                                        std::span<const ItemId> items) = 0;
};

}  // namespace kgag

#endif  // KGAG_EVAL_GROUP_SCORER_H_
